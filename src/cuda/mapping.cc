#include "cuda/mapping.h"

#include "common/log.h"

namespace gpulitmus::cuda {

const std::vector<MappingEntry> &
mappingTable()
{
    static const std::vector<MappingEntry> table = {
        {"atomicCAS", "atom.cas"},
        {"atomicExch", "atom.exch"},
        {"__threadfence", "membar.gl"},
        {"__threadfence_block", "membar.cta"},
        {"atomicAdd(...,1)", "atom.inc"},
        {"store to global int", "st.cg"},
        {"load from global int", "ld.cg"},
        {"store to volatile int", "st.volatile"},
        {"load from volatile int", "ld.volatile"},
        {"control flow (while, if)",
         "jumps & predicated instructions"},
    };
    return table;
}

const MappingEntry &
mappingEntry(CudaOp op)
{
    return mappingTable().at(static_cast<size_t>(op));
}

std::string
translate(CudaOp op, const std::string &dst, const std::string &loc,
          const std::string &a, const std::string &b)
{
    const std::string &ptx = mappingEntry(op).ptx;
    std::string addr = "[" + loc + "]";
    switch (op) {
      case CudaOp::AtomicCas:
        return ptx + " " + dst + "," + addr + "," + a + "," + b;
      case CudaOp::AtomicExch:
        return ptx + " " + dst + "," + addr + "," + a;
      case CudaOp::Threadfence:
      case CudaOp::ThreadfenceBlock:
        return ptx;
      case CudaOp::AtomicAdd1:
      case CudaOp::GlobalLoad:
      case CudaOp::VolatileLoad:
        return ptx + " " + dst + "," + addr;
      case CudaOp::GlobalStore:
      case CudaOp::VolatileStore:
        return ptx + " " + addr + "," + a;
    }
    panic("unknown CudaOp");
}

} // namespace gpulitmus::cuda
