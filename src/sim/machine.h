/**
 * @file
 * The operational GPU machine: executes one litmus-test iteration on
 * a simulated chip, producing a final state.
 *
 * Mechanisms (all shared across chips; chips differ in parameters):
 *
 * - per-thread in-order issue with a register scoreboard (dependent
 *   instructions stall, so address/data/control dependencies order
 *   accesses exactly as RMO requires);
 * - a per-thread commit window from which memory operations retire
 *   out of order, subject to same-address ordering (minus the
 *   read-read load-load hazard on chips that allow coRR), fences, and
 *   per-pair pass probabilities;
 * - a per-SM store buffer (Nvidia): committed stores become visible
 *   to other SMs only when drained to the L2; atomics bypass the
 *   buffer and act on the L2 directly — which is precisely why the
 *   fenceless spin locks of Sec. 3.2.2 break;
 * - per-SM non-coherent L1s: .ca loads may hit lines staled by other
 *   SMs' (or the same SM's) stores; fences invalidate stale lines
 *   only with per-chip, per-scope probabilities (Figs. 3 and 4);
 * - scoped fences: membar.gl/sys order the window and flush the
 *   buffer; membar.cta does so only when a same-CTA testing peer
 *   exists (an SM orders its local stream; there is no same-SM
 *   observer to violate otherwise) — this is what lets the simulator
 *   reproduce inter-CTA lb+membar.ctas (Sec. 6) while staying sound
 *   w.r.t. the PTX model;
 * - the four incantations of Sec. 4.3 as scheduling knobs: memory
 *   stress activates the reordering/buffering machinery, bank
 *   conflicts add intra-SM jitter (and stall the testing warp a
 *   little), thread synchronisation aligns thread start times, and
 *   thread randomisation re-randomises placement and start skew every
 *   iteration.
 *
 * Hot-path contracts (what the model checker and the sampling harness
 * lean on):
 *
 * - Compile once, run many: a Machine compiles its test to indexed
 *   registers and instruction arrays at construction; run()/resume()
 *   reset and reuse pooled per-run storage in place, so the steady
 *   state of the step loop performs no heap allocation. setOptions()
 *   re-parameterises the *runtime* knobs (incantations, step limits)
 *   without recompiling — the compiled program depends only on the
 *   test — which is what lets one compiled machine serve a whole
 *   (chip, test) batch of jobs.
 *
 * - Outcomes by digest: the sampler (harness::runJob) and the
 *   explorer run the light shapes (runLight/resumeLight) and record
 *   each run by its outcomeDigest() through one sim::OutcomeTable
 *   (sim/outcomes.h). Only a digest not seen before materialises
 *   finalState(), so the steady-state iteration builds no string and
 *   no map.
 *
 * - Two issue modes, chosen by the provider (ChoiceProvider::
 *   eagerIssue). Lazy issue, the sampler's: a thread's slot issues
 *   one instruction or commits one window entry, an IssueOrCommit
 *   draw choosing when both can; the sampler's draw stream is the
 *   pre-refactor one, bit for bit. Eager issue, the explorer's: every
 *   thread issues up to its first block point when the run starts,
 *   and a slot commits one entry and then issues up to the next block
 *   point. Issuing touches only the thread's own registers, pc and
 *   window and only adds commit options, so the reachable final
 *   states are the lazy ones. The one exception is a register hazard
 *   (issueHazard): an instruction reading or writing the dst of an
 *   in-flight load or atomic, whose issue time decides a register
 *   value. There the IssueOrCommit choice stays, marked relevant:
 *   issue now, or after a later commit.
 *
 * - Used SMs only: an SM hosting no testing thread is never read — its
 *   buffer fills only from its own threads and its L1 lines are served
 *   to no one. resetRun() therefore resets and warms only the used
 *   SMs, and writeToL2 and the drain scans walk only the used-SM bits.
 *   The L1Warm draws of the others are still made, as one
 *   ChoiceProvider::skipChances call per run of consecutive unused
 *   SMs (irrelevant chances: the sampler advances its Rng past them,
 *   so its stream is unchanged). Unused SMs keep whatever an earlier
 *   run left behind.
 *
 * - One machine source, two instantiations: the stochastic members
 *   (resetRun, mainLoop, threadAction, commitOne, perform, the drains,
 *   readGlobal, ...) are templates on the provider type. machine.cc
 *   instantiates them for the final sim::RngChoice, behind
 *   runLight(RngChoice&) and run(Rng&) — the sampler, where every
 *   provider call inlines and the actor table and eager issue fold
 *   away at compile time — and for the virtual ChoiceProvider behind
 *   runLight(ChoiceProvider&), run(ChoiceProvider&) and resume(),
 *   which the explorer and every other provider take. Both walk the
 *   same code, so for one Rng they make the same draws in the same
 *   order and reach the same final state.
 *
 * - Flat per-run state: a commit window is an inline array of at most
 *   kWindowCap entries (a copy moves only the live ones), and an L1
 *   line a plain struct with a valid bit. Per-run containers are
 *   sized at compile, so a reset touches no heap; shared memory is
 *   reset only when the test has shared locations (nothing else
 *   writes it). The state encoding ignores the layout: an invalid
 *   line encodes as one zero byte whatever its other fields hold.
 *
 * - Snapshot/restore lifetime: snapshot() captures the complete
 *   mutable run state at the top of a scheduling step; resume()
 *   restores it and continues the main loop from that step. A
 *   Snapshot is a plain copyable value, restored into the machine
 *   that took it: SMs hosting no thread are not captured, so
 *   restore() relies on the machine's own copies of those. Restoring
 *   into any other machine — or after setOptions() changed the
 *   incantations — is undefined. snapshot(Snapshot&) reuses the
 *   target's storage, so a pooled snapshot is allocation-free after
 *   first use.
 *
 * - State-key stability: encodeState() and hashState() emit the same
 *   canonical stream (hashState folds it into a 128-bit digest
 *   without materialising it). Small fields are packed into whole
 *   words, and every field is injective at its full width (an enum
 *   over its whole enumerator range), so packing merges no states.
 *   Two states with equal encodings behave identically under
 *   identical future choices. The encoding — and
 *   therefore the digest — is stable within a process and across
 *   processes of one build, but is NOT a serialisation format: field
 *   layout may change between versions, so never persist keys or
 *   digests across builds (see common/hash.h).
 */

#ifndef GPULITMUS_SIM_MACHINE_H
#define GPULITMUS_SIM_MACHINE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "litmus/test.h"
#include "sim/chip.h"
#include "sim/choice.h"

namespace gpulitmus::sim {

/** The four incantations of Sec. 4.3. */
struct Incantations
{
    bool memoryStress = false;
    bool bankConflicts = false;
    bool threadSync = false;
    bool threadRandomisation = false;

    static Incantations none() { return {}; }
    static Incantations all() { return {true, true, true, true}; }

    bool operator==(const Incantations &other) const = default;

    /**
     * Tab. 6 column (1..16). Bit assignment reconstructed from the
     * paper's column comparisons: bit0 = thread randomisation, bit1 =
     * thread synchronisation, bit2 = bank conflicts, bit3 = memory
     * stress, column = bits + 1.
     */
    static Incantations fromColumn(int column);
    int column() const;

    std::string str() const;
};

struct MachineOptions
{
    Incantations inc = Incantations::all();
    /** Abort threshold for one iteration (guards imported tests with
     * unbounded loops). */
    int maxMicroSteps = 4000;
    /** Start-time skew (in micro-steps) without thread sync. */
    int skewMax = 48;
};

/**
 * Executes iterations of one litmus test on one chip. Construct once;
 * call run() per iteration (state is reset each time).
 */
class Machine
{
  public:
    Machine(const ChipProfile &chip, const litmus::Test &test,
            MachineOptions opts = {});

    /**
     * Re-parameterise the runtime knobs (incantations, step limits)
     * without recompiling. The compiled program depends only on the
     * test, so a cached machine can serve jobs differing in options.
     * Invalidates outstanding Snapshots semantically (a snapshot
     * captures state produced under the old options).
     */
    void setOptions(const MachineOptions &opts) { opts_ = opts; }
    const MachineOptions &options() const { return opts_; }

    /** One iteration; draws all randomness from rng. Thin wrapper
     * over runLight(RngChoice&) — the draw sequence is bit-identical
     * to the pre-refactor machine. */
    litmus::FinalState run(Rng &rng);

    /** One iteration; every nondeterministic decision is answered by
     * the provider (see sim/choice.h). */
    litmus::FinalState run(ChoiceProvider &choices);

    /**
     * run() without materialising the final state: returns false when
     * the provider aborted the iteration (ChoiceProvider::kAbortRun),
     * true otherwise. After a true return, query outcomeDigest() —
     * and finalState() only for digests not seen before. Searchers
     * use this to skip the final-state maps for the (overwhelmingly
     * common) leaves whose outcome repeats an earlier one.
     */
    bool runLight(ChoiceProvider &choices);

    /** runLight() specialised on the sampler: the same draws, answers
     * and final state as the virtual overload given an equal Rng,
     * with every provider call resolved at compile time. */
    bool runLight(RngChoice &choices);

    /**
     * 128-bit digest of the observable final state of the last
     * completed (non-aborted) run: every thread register plus the
     * final memory value of every testing location — exactly the
     * fields finalState() materialises, so equal digests imply equal
     * final states (up to the ~2^-128 collision bound of
     * common/hash.h).
     */
    Digest128 outcomeDigest() const;

    /** Materialise the final state of the last completed run. */
    litmus::FinalState finalState() const;

    /**
     * Append a canonical encoding of the mutable run state (thread
     * contexts, commit windows, store buffers, L1s, L2, shared
     * memory) to `out`. Two runs whose encodings match behave
     * identically under identical future choices — the state key the
     * model checker dedups on. The per-thread fetch counters are
     * excluded (they only drive the runaway-loop guard); see
     * executedSignature() for detecting when that exclusion could
     * matter.
     */
    void encodeState(std::string &out) const;

    /**
     * Fold the canonical state encoding into an incremental 128-bit
     * hash with no intermediate buffer. hashState() and encodeState()
     * are generated from one shared traversal, so they digest exactly
     * the same fields in the same order and cannot drift: states with
     * equal encodings have equal digests, and unequal encodings
     * collide only with ~2^-128 probability (common/hash.h).
     */
    void hashState(Hash128 &h) const;

    /**
     * Digest of the per-thread fetch counters. For loop-free
     * programs this is a function of the encoded state; for loops,
     * two encodeState-equal states with different signatures differ
     * only in how close they are to the runaway-loop guard — a
     * searcher deduping them must demote its result from "exact" to
     * "bounded".
     */
    uint64_t executedSignature() const;

    /** Did the last run() hit a step guard (the outer micro-step
     * bound or a thread's fetch guard)? Guard-truncated executions
     * end deterministically, so a search that never sees truncation
     * is exploring the unguarded machine exactly. */
    bool lastRunTruncated() const { return truncated_; }

    /** Scheduling steps the last run took (its main-loop position at
     * exit; a resumed run counts from its snapshot's step). */
    int lastRunSteps() const { return curStep_; }

    const ChipProfile &chip() const { return *chip_; }

  private:
    // ---- compiled program ------------------------------------------
    struct COperand
    {
        bool isImm = true;
        int reg = -1;
        int64_t imm = 0;
    };

    struct CInstr
    {
        ptx::Opcode op = ptx::Opcode::Nop;
        ptx::CacheOp cacheOp = ptx::CacheOp::None;
        ptx::Scope scope = ptx::Scope::Gl;
        bool isVolatile = false;
        int guardReg = -1;
        bool guardNeg = false;
        int dst = -1;
        COperand addr;
        int addrLoc = -1; ///< location of an immediate address
        COperand src0, src1;
        int braTarget = -1;
        /** Registers that must not be pending for the instruction to
         * issue (its guard and the operands its opcode reads). */
        uint64_t waitRegs = 0;
        /** Every register it reads or writes (issueHazard). */
        uint64_t touchRegs = 0;
    };

    struct CThread
    {
        std::vector<CInstr> instrs;
        std::vector<int64_t> regInit;
    };

    // ---- runtime state ----------------------------------------------
    struct WindowEntry
    {
        enum class Kind : uint8_t { Load, Store, Atomic, Fence };
        int64_t src0 = 0, src1 = 0;
        ptx::Opcode op = ptx::Opcode::Nop;
        ptx::CacheOp cacheOp = ptx::CacheOp::None;
        ptx::Scope scope = ptx::Scope::Gl;
        int loc = -1; ///< location index; -1 for fences
        int dst = -1;
        /** Replay delay: bumped when a younger access passes this
         * entry (the bypassed access replays in the pipeline), which
         * widens the race window for other threads to intervene. */
        int delay = 0;
        Kind kind = Kind::Load;
        bool shared = false;
    };

    /** Commit-window entries a thread may have in flight. */
    static constexpr size_t kWindowCap = 8;

    /** A thread's commit window, held inline: resetting or copying a
     * thread touches no heap. Entries keep program order. */
    struct Window
    {
        WindowEntry entries[kWindowCap];
        size_t n = 0;

        Window() = default;
        Window(const Window &other) { *this = other; }

        /** Copies the live entries only. */
        Window &
        operator=(const Window &other)
        {
            n = other.n;
            std::copy(other.entries, other.entries + n, entries);
            return *this;
        }

        size_t size() const { return n; }
        bool empty() const { return n == 0; }
        void clear() { n = 0; }
        const WindowEntry &front() const { return entries[0]; }
        WindowEntry &operator[](size_t i) { return entries[i]; }
        const WindowEntry &operator[](size_t i) const { return entries[i]; }
        const WindowEntry *begin() const { return entries; }
        const WindowEntry *end() const { return entries + n; }
        void push_back(const WindowEntry &e) { entries[n++] = e; }

        /** Remove entry i; the younger entries move up one. */
        void
        erase(size_t i)
        {
            for (; i + 1 < n; ++i)
                entries[i] = entries[i + 1];
            --n;
        }
    };

    struct ThreadState
    {
        int smId = 0;
        int ctaId = 0;
        int pc = 0;
        int startDelay = 0;
        int executed = 0;
        bool frontDone = false;
        std::vector<int64_t> regs;
        uint64_t pendingRegs = 0;
        Window window;
        uint64_t wroteLocs = 0; ///< bitmask over location indices

        bool done() const { return frontDone && window.empty(); }
    };

    /** One location's L1 line; the other fields mean nothing while
     * valid is false. */
    struct L1Line
    {
        int64_t value = 0;
        bool valid = false;
        bool stale = false;
        bool staleFromOwnSM = false;
    };

    struct BufferEntry
    {
        int loc = -1;
        int64_t value = 0;
    };

    struct SmState
    {
        std::vector<L1Line> l1; ///< per location
        std::vector<BufferEntry> buffer;
    };

  public:
    /**
     * The complete mutable run state at the top of a scheduling step.
     * A plain copyable value — but only meaningful for the Machine
     * that produced it (see the file header's lifetime rules). Opaque
     * outside the machine: holders store and pass it back, nothing
     * more.
     */
    struct Snapshot
    {
        std::vector<ThreadState> threads;
        std::vector<SmState> sms;
        std::vector<int64_t> l2;
        std::vector<std::vector<int64_t>> sharedMem;
        int step = 0;         ///< main-loop position to resume at
        bool truncated = false;
    };

    /**
     * Capture the current run state into `out`, reusing its storage
     * (a pooled snapshot is allocation-free after first use). Only
     * meaningful at a Schedule choice point — the top of a main-loop
     * step, before the pick mutates anything — which is exactly where
     * providers see the actor table.
     */
    void snapshot(Snapshot &out) const;

    /**
     * Restore `snap` and continue that interrupted run from its step:
     * the first decision the provider is asked for is the Schedule
     * pick of the snapshotted step. Behaviourally identical to (and
     * much cheaper than) re-running from the start under the same
     * choice prefix.
     */
    litmus::FinalState resume(const Snapshot &snap,
                              ChoiceProvider &choices);

    /** resume() in the light shape of runLight(). */
    bool resumeLight(const Snapshot &snap, ChoiceProvider &choices);

  private:
    // ---- helpers ----------------------------------------------------
    void compile();
    static void setIssueMasks(CInstr &ci);
    int regIndex(int tid, const std::string &name);
    COperand compileOperand(const ptx::Operand &op, int tid);
    int locIndexOf(int64_t addr) const;
    bool locShared(int loc) const { return (sharedLocs_ >> loc) & 1; }

    // The stochastic members are templates on the provider type P,
    // defined and instantiated in machine.cc for the final RngChoice
    // (runLight(RngChoice&): every provider call inlines) and for the
    // virtual ChoiceProvider (everything else, the explorer included).
    template <typename P> bool startRun(P &cp);
    template <typename P> void resetRun(P &cp);
    void restore(const Snapshot &snap);
    /** The step loop plus the deterministic finish; run() enters it
     * at step 0, resume() at the snapshot's step. False when the
     * provider aborted the iteration. */
    template <typename P> bool mainLoop(int start_step, P &cp);
    /** One traversal generates both state encodings (see
     * encodeState/hashState); Sink is a byte/word consumer. */
    template <typename Sink> void encodeTo(Sink &sink) const;
    /** The run's issue mode: the provider's, read at run()/resume();
     * a compile-time false for the sampler. */
    template <typename P>
    bool
    eager() const
    {
        return !std::is_same_v<P, RngChoice> && eagerIssue_;
    }
    template <typename P> void threadAction(int tid, P &cp);
    /** Eager issue: issue in order until an instruction cannot issue
     * (window full, operand pending, front end done) or a hazard
     * branch defers it. */
    template <typename P> void issueToBlock(int tid, P &cp);
    bool
    issueReady(const ThreadState &ts, const CInstr &in) const
    {
        return (ts.pendingRegs & in.waitRegs) == 0;
    }
    /** Does issuing `in` now, rather than after a later commit, decide
     * a register value? True when it reads or writes the dst of an
     * in-flight window entry. */
    bool issueHazard(const ThreadState &ts, const CInstr &in) const;
    void issueOne(int tid);
    template <typename P> void commitOne(int tid, P &cp);
    double pairPass(int tid, const WindowEntry &older,
                    const WindowEntry &younger) const;
    bool fenceActiveFor(int tid, const WindowEntry &fence,
                        bool target_shared) const;
    template <typename P>
    void perform(int tid, const WindowEntry &e, P &cp);
    template <typename P>
    void drainOne(int sm, P &cp, bool in_order_only);
    template <typename P> void drainAll(int sm, P &cp);
    void writeToL2(int loc, int64_t value, int writer_sm);
    template <typename P>
    int64_t readGlobal(int tid, const WindowEntry &e, P &cp);
    template <typename P>
    void applyFenceInvalidation(int sm, ptx::Scope scope, P &cp);
    void fillActorTable(int nthreads, const int *drain_sms,
                        int ndrains);
    litmus::FinalState collectFinalState() const;

    double corrJitterFactor() const;
    bool stress() const { return opts_.inc.memoryStress; }

    const ChipProfile *chip_;
    const litmus::Test *test_;
    MachineOptions opts_;

    // Compiled once.
    std::vector<CThread> compiled_;
    std::vector<std::vector<std::string>> regNames_; ///< per thread
    std::vector<int64_t> locInit_;
    uint64_t sharedLocs_ = 0; ///< bitmask over location indices
    int numGlobalLocs_ = 0;   ///< L1Warm draws per SM
    std::vector<bool> hasSameCtaPeer_;
    std::vector<int> threadCta_; ///< per thread, from the scope tree
    int numCtas_ = 0;

    // Reset per run (storage sized at compile and reset in place, so
    // a run allocates nothing). Shared memory is reset only when the
    // test has shared locations: otherwise nothing writes it.
    std::vector<ThreadState> threads_;
    std::vector<SmState> sms_;
    std::vector<int64_t> l2_;
    std::vector<std::vector<int64_t>> sharedMem_; ///< per CTA
    /** Scratch actor table, built per Schedule choice only when the
     * provider wantsActors() (exhaustive search; never the sampler). */
    std::vector<ActorOption> actors_;
    /** Scratch for resetRun's CTA->SM placement draw. */
    std::vector<int> ctaSm_, smIds_;
    /** Bitmask of the SMs hosting a CTA this run (set by resetRun,
     * recomputed by restore): the only SMs reset, written back and
     * scanned for drains. */
    uint64_t usedSms_ = 0;
    /** Set when a run hits the outer step bound or a fetch guard. */
    bool truncated_ = false;
    /** The provider's issue mode, read at run()/resume(). */
    bool eagerIssue_ = false;
    /** Main-loop position, maintained so snapshot() can record where
     * to resume. */
    int curStep_ = 0;
};

} // namespace gpulitmus::sim

#endif // GPULITMUS_SIM_MACHINE_H
