#include "opt/amd.h"

#include "common/log.h"

namespace gpulitmus::opt {

namespace {

using ptx::Instruction;
using ptx::Opcode;

/** Remove fences that sit between two loads with no store or atomic
 * in between (the GCN 1.0 quirk of Sec. 3.1.2). */
bool
removeFencesBetweenLoads(ptx::ThreadProgram &prog,
                         std::vector<std::string> &quirks, int tid)
{
    bool changed = false;
    for (size_t i = 0; i < prog.instrs.size(); ++i) {
        if (!prog.instrs[i].isFence())
            continue;
        // Find the nearest memory accesses before and after.
        const Instruction *before = nullptr;
        const Instruction *after = nullptr;
        for (size_t j = i; j-- > 0;) {
            if (prog.instrs[j].isMemAccess()) {
                before = &prog.instrs[j];
                break;
            }
        }
        for (size_t j = i + 1; j < prog.instrs.size(); ++j) {
            if (prog.instrs[j].isMemAccess()) {
                after = &prog.instrs[j];
                break;
            }
        }
        if (before && after && before->op == Opcode::Ld &&
            after->op == Opcode::Ld) {
            quirks.push_back(
                "T" + std::to_string(tid) +
                ": GCN 1.0 compiler removed the fence between two"
                " loads");
            prog.instrs.erase(prog.instrs.begin() +
                              static_cast<std::ptrdiff_t>(i));
            // Labels bind instruction indices: everything past the
            // erased slot shifts down, or spin-loop branch targets
            // in labelled programs (scenarios) would silently land
            // one instruction late.
            for (auto &[name, idx] : prog.labels) {
                if (idx > static_cast<int>(i))
                    --idx;
            }
            --i;
            changed = true;
        }
    }
    return changed;
}

/** Reorder a load past a following CAS to a different location (the
 * TeraScale 2 miscompilation of Sec. 3.2.1 / Fig. 8's "n/a"). */
bool
reorderLoadPastCas(ptx::ThreadProgram &prog,
                   std::vector<std::string> &quirks, int tid)
{
    for (size_t i = 0; i + 1 < prog.instrs.size(); ++i) {
        Instruction &a = prog.instrs[i];
        Instruction &b = prog.instrs[i + 1];
        if (a.op == Opcode::Ld && b.op == Opcode::AtomCas &&
            !(a.addr == b.addr) && !b.hasGuard &&
            // No dependency from the load into the CAS.
            b.addr.reg != a.dst && a.dst != "" ) {
            std::swap(a, b);
            quirks.push_back(
                "T" + std::to_string(tid) +
                ": TeraScale 2 compiler reordered a load past a CAS"
                " (miscompilation: invalidates CAS-based"
                " synchronisation)");
            return true;
        }
    }
    return false;
}

/** Coalesce repeated loads of one location into a register move. */
bool
coalesceRepeatedLoads(ptx::ThreadProgram &prog,
                      std::vector<std::string> &quirks, int tid)
{
    for (size_t i = 0; i + 1 < prog.instrs.size(); ++i) {
        const Instruction &a = prog.instrs[i];
        if (a.op != Opcode::Ld)
            continue;
        for (size_t j = i + 1; j < prog.instrs.size(); ++j) {
            const Instruction &b = prog.instrs[j];
            if (b.writesMemory() || b.isFence())
                break;
            if (b.op == Opcode::Ld && b.addr == a.addr &&
                !b.hasGuard) {
                prog.instrs[j] = Instruction{
                    .op = Opcode::Mov,
                    .dst = b.dst,
                    .srcs = {ptx::Operand::makeReg(a.dst)}};
                quirks.push_back(
                    "T" + std::to_string(tid) +
                    ": compiler coalesced repeated loads of one"
                    " location into a single load");
                return true;
            }
        }
    }
    return false;
}

} // anonymous namespace

AmdCompileResult
amdCompile(const litmus::Test &test, const sim::ChipProfile &chip,
           bool suppress_coalescing)
{
    if (!chip.isAmd())
        fatal("amdCompile called for non-AMD chip '%s'",
              chip.shortName.c_str());

    AmdCompileResult result;
    result.compiled = test;
    result.compiled.name = test.name + "@" + chip.shortName;

    for (int t = 0; t < result.compiled.program.numThreads(); ++t) {
        auto &prog = result.compiled.program.threads[t];
        if (chip.amdRemovesFenceBetweenLoads)
            removeFencesBetweenLoads(prog, result.quirks, t);
        if (chip.amdReordersLoadCas) {
            if (reorderLoadPastCas(prog, result.quirks, t))
                result.miscompiled = true;
        }
        if (chip.amdCoalescesRepeatedLoads && !suppress_coalescing) {
            if (coalesceRepeatedLoads(prog, result.quirks, t))
                result.miscompiled = true;
        }
    }
    return result;
}

} // namespace gpulitmus::opt
