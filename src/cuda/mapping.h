/**
 * @file
 * The CUDA-to-PTX mapping of Tab. 5, discovered by the paper's
 * authors by examining code generated by the CUDA 5.5 compiler (with
 * -Xptxas -dlcm=cg -Xptxas -dscm=cg to guard against the L1
 * behaviours of Sec. 3.1.2).
 *
 * mappingTable() is the only encoding of Tab. 5: translate() takes
 * each instruction's mnemonic from its op's row and returns PTX text,
 * which the distillations of cuda/snippets.h hand to
 * litmus::TestBuilder like every other built-in thread.
 */

#ifndef GPULITMUS_CUDA_MAPPING_H
#define GPULITMUS_CUDA_MAPPING_H

#include <string>
#include <vector>

namespace gpulitmus::cuda {

/** One row of Tab. 5. */
struct MappingEntry
{
    std::string cuda;
    std::string ptx;
};

/** The full Tab. 5, in the paper's row order. */
const std::vector<MappingEntry> &mappingTable();

/**
 * The CUDA constructs the mapping covers, declared in the row order
 * of mappingTable(): op's row is mappingTable()[op]. The last row,
 * control flow, has no op; a distillation writes its setp and guards
 * as PTX text itself.
 */
enum class CudaOp {
    AtomicCas,        ///< atomicCAS(&x, cmp, val)
    AtomicExch,       ///< atomicExch(&x, val)
    Threadfence,      ///< __threadfence()
    ThreadfenceBlock, ///< __threadfence_block()
    AtomicAdd1,       ///< atomicAdd(&x, 1)
    GlobalStore,      ///< *x = v (global int)
    GlobalLoad,       ///< v = *x (global int)
    VolatileStore,    ///< *x = v (volatile int)
    VolatileLoad,     ///< v = *x (volatile int)
};

/** The Tab. 5 row of one CUDA construct. */
const MappingEntry &mappingEntry(CudaOp op);

/**
 * Translate one CUDA construct to the text of its PTX instruction per
 * Tab. 5, e.g. "atom.cas r0,[m],0,1". dst is the result register
 * (atomics and loads); loc the location name; a/b the operands
 * (immediate constants or register names) as PTX text.
 */
std::string translate(CudaOp op, const std::string &dst = "",
                      const std::string &loc = "",
                      const std::string &a = "",
                      const std::string &b = "");

} // namespace gpulitmus::cuda

#endif // GPULITMUS_CUDA_MAPPING_H
