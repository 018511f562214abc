#include "sim/machine.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace gpulitmus::sim {

namespace {

/** Start-time skew (in micro-steps) without thread sync. */
constexpr uint64_t kStartSkewMax = 48;

} // anonymous namespace

// ---------------------------------------------------------------------
// Incantations
// ---------------------------------------------------------------------

Incantations
Incantations::fromColumn(int column)
{
    if (column < 1 || column > 16)
        fatal("Tab. 6 column must be 1..16, got %d", column);
    int bits = column - 1;
    Incantations inc;
    inc.threadRandomisation = bits & 1;
    inc.threadSync = bits & 2;
    inc.bankConflicts = bits & 4;
    inc.memoryStress = bits & 8;
    return inc;
}

int
Incantations::column() const
{
    return 1 + (threadRandomisation ? 1 : 0) + (threadSync ? 2 : 0) +
           (bankConflicts ? 4 : 0) + (memoryStress ? 8 : 0);
}

std::string
Incantations::str() const
{
    std::string out;
    auto add = [&](bool on, const char *name) {
        if (on) {
            if (!out.empty())
                out += "+";
            out += name;
        }
    };
    add(memoryStress, "stress");
    add(bankConflicts, "bank");
    add(threadSync, "sync");
    add(threadRandomisation, "rand");
    return out.empty() ? "none" : out;
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

Machine::Machine(const ChipProfile &chip, const litmus::Test &test,
                 MachineOptions opts)
    : chip_(&chip), test_(&test), opts_(opts)
{
    compile();
}

int
Machine::regIndex(int tid, const std::string &name)
{
    auto &names = regNames_[tid];
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return static_cast<int>(i);
    }
    // The parsers reject tests over the limit (Test::limitError), so
    // reaching it here is a bug: the scoreboard is a 64-bit mask.
    if (names.size() >= static_cast<size_t>(litmus::Test::maxRegisters))
        panic("thread %d uses more than %d registers", tid,
              litmus::Test::maxRegisters);
    names.push_back(name);
    return static_cast<int>(names.size()) - 1;
}

Machine::COperand
Machine::compileOperand(const ptx::Operand &op, int tid)
{
    COperand c;
    switch (op.kind) {
      case ptx::Operand::Kind::Imm:
        c.isImm = true;
        c.imm = op.imm;
        break;
      case ptx::Operand::Kind::Sym:
        c.isImm = true;
        c.imm = test_->addressOf(op.sym);
        break;
      case ptx::Operand::Kind::Reg:
        c.isImm = false;
        c.reg = regIndex(tid, op.reg);
        break;
      case ptx::Operand::Kind::None:
        c.isImm = true;
        c.imm = 0;
        break;
    }
    return c;
}

int
Machine::locIndexOf(int64_t addr) const
{
    int64_t base = addr >= litmus::Test::sharedBase
                       ? litmus::Test::sharedBase
                       : litmus::Test::globalBase;
    if (addr < litmus::Test::globalBase)
        return -1;
    int64_t off = addr - base;
    if (off % litmus::Test::locStride != 0)
        return -1;
    int idx = static_cast<int>(off / litmus::Test::locStride);
    if (idx < 0 || idx >= static_cast<int>(locInit_.size()))
        return -1;
    // The base encodes the space; check consistency.
    bool shared = addr >= litmus::Test::sharedBase;
    if (locShared(idx) != shared)
        return -1;
    return idx;
}

void
Machine::setIssueMasks(CInstr &ci)
{
    auto bit = [](int reg) { return reg >= 0 ? 1ULL << reg : 0; };
    // The operands an opcode waits for; an immediate has reg -1.
    uint64_t addr = bit(ci.addr.reg), src0 = bit(ci.src0.reg),
             src1 = bit(ci.src1.reg);
    switch (ci.op) {
      case ptx::Opcode::Ld:
      case ptx::Opcode::AtomInc:
        ci.waitRegs = addr;
        break;
      case ptx::Opcode::St:
      case ptx::Opcode::AtomExch:
      case ptx::Opcode::AtomAdd:
        ci.waitRegs = addr | src0;
        break;
      case ptx::Opcode::AtomCas:
        ci.waitRegs = addr | src0 | src1;
        break;
      case ptx::Opcode::Membar:
      case ptx::Opcode::Nop:
      case ptx::Opcode::Bra:
        ci.waitRegs = 0;
        break;
      default:
        ci.waitRegs = src0 | src1;
        break;
    }
    ci.waitRegs |= bit(ci.guardReg);
    ci.touchRegs = bit(ci.guardReg) | bit(ci.dst) | addr | src0 | src1;
}

void
Machine::compile()
{
    int nthreads = test_->program.numThreads();
    regNames_.resize(nthreads);
    compiled_.resize(nthreads);

    // Written-location sets, footprints and the used-SM set are
    // 64-bit masks; the parsers reject tests over the location limit.
    if (test_->locations.size() >
        static_cast<size_t>(litmus::Test::maxLocations))
        panic("test '%s' has more than %d locations",
              test_->name.c_str(), litmus::Test::maxLocations);
    if (chip_->numSMs > 64)
        panic("chip '%s' has more than 64 SMs",
              chip_->shortName.c_str());

    for (const auto &l : test_->locations) {
        if (l.space == litmus::MemSpace::Shared)
            sharedLocs_ |= 1ULL << locInit_.size();
        else
            ++numGlobalLocs_;
        locInit_.push_back(l.init);
    }

    for (int t = 0; t < nthreads; ++t) {
        const auto &prog = test_->program.threads[t];
        CThread &ct = compiled_[t];
        for (const auto &in : prog.instrs) {
            CInstr ci;
            ci.op = in.op;
            ci.cacheOp = in.cacheOp;
            ci.scope = in.scope;
            ci.isVolatile = in.isVolatile;
            if (in.hasGuard) {
                ci.guardReg = regIndex(t, in.guardReg);
                ci.guardNeg = in.guardNegated;
            }
            if (!in.dst.empty())
                ci.dst = regIndex(t, in.dst);
            if (!in.addr.isNone())
                ci.addr = compileOperand(in.addr, t);
            if (ci.addr.isImm)
                ci.addrLoc = locIndexOf(ci.addr.imm);
            if (in.srcs.size() > 0)
                ci.src0 = compileOperand(in.srcs[0], t);
            if (in.srcs.size() > 1)
                ci.src1 = compileOperand(in.srcs[1], t);
            if (in.op == ptx::Opcode::Bra)
                ci.braTarget = prog.labelTarget(in.target);
            setIssueMasks(ci);
            // readGlobal serves an L1 line only to a .ca load.
            l1Live_ |= ci.op == ptx::Opcode::Ld &&
                       ci.cacheOp == ptx::CacheOp::Ca;
            ct.instrs.push_back(ci);
        }
        ct.regInit.assign(regNames_[t].size(), 0);
        for (const auto &ri : test_->regInits) {
            if (ri.tid != t)
                continue;
            int idx = regIndex(t, ri.reg);
            if (idx >= static_cast<int>(ct.regInit.size()))
                ct.regInit.resize(idx + 1, 0);
            ct.regInit[idx] = ri.isLocAddress
                                  ? test_->addressOf(ri.loc)
                                  : ri.value;
        }
        // regIndex may have grown the name table for init-only regs.
        ct.regInit.resize(regNames_[t].size(), 0);
    }

    numCtas_ = test_->scopeTree.numCtas();
    threadCta_.resize(nthreads);
    for (int t = 0; t < nthreads; ++t)
        threadCta_[t] = test_->scopeTree.placement(t).cta;

    hasSameCtaPeer_.assign(nthreads, false);
    for (int a = 0; a < nthreads; ++a) {
        for (int b = 0; b < nthreads; ++b) {
            if (a != b && test_->scopeTree.sameCta(a, b))
                hasSameCtaPeer_[a] = true;
        }
    }

    // Per-run storage, sized once; resetRun resets it in place.
    threads_.resize(nthreads);
    for (int t = 0; t < nthreads; ++t)
        threads_[t].regs.resize(compiled_[t].regInit.size());
    l2_.resize(locInit_.size());
    sms_.resize(chip_->numSMs);
    for (auto &sm : sms_)
        sm.l1.resize(locInit_.size());
    ctaSm_.resize(numCtas_);
    smIds_.resize(chip_->numSMs);
    sharedMem_.assign(numCtas_, locInit_);
}

// ---------------------------------------------------------------------
// Per-run reset
// ---------------------------------------------------------------------

template <typename P>
void
Machine::resetRun(P &cp)
{
    // Every container below is reset *in place* (compile() sized
    // them), so the reset performs no heap allocation. The choice
    // draw order is identical to the pre-pooling reset (placement,
    // then L1 warmth, then start skew) — bit-compatibility with the
    // golden histograms depends on it.
    int nthreads = static_cast<int>(compiled_.size());
    int nlocs = static_cast<int>(locInit_.size());

    std::copy(locInit_.begin(), locInit_.end(), l2_.begin());

    int nctas = numCtas_;
    if (sharedLocs_ != 0) {
        for (auto &mem : sharedMem_)
            std::copy(locInit_.begin(), locInit_.end(), mem.begin());
    }

    // CTA -> SM placement: distinct SMs per CTA (the scheduler
    // spreads resident CTAs across SMs). Without thread randomisation
    // the layout is fixed; with it, each iteration draws a fresh
    // assignment.
    if (opts_.inc.threadRandomisation && nctas <= chip_->numSMs) {
        for (int s = 0; s < chip_->numSMs; ++s)
            smIds_[s] = s;
        // Fisher-Yates, one pick per swap: the sampler consumes the
        // Rng exactly as Rng::shuffle did. SMs are homogeneous and
        // every placement puts the CTAs on distinct SMs, so the kind
        // is reachability-irrelevant by construction.
        for (size_t i = smIds_.size() - 1; i > 0; --i) {
            size_t j = static_cast<size_t>(
                cp.pick(ChoiceKind::Placement, i + 1));
            std::swap(smIds_[i], smIds_[j]);
        }
        for (int c = 0; c < nctas; ++c)
            ctaSm_[c] = smIds_[c];
    } else {
        for (int c = 0; c < nctas; ++c)
            ctaSm_[c] = c % chip_->numSMs;
    }

    usedSms_ = 0;
    for (int c = 0; c < nctas; ++c)
        usedSms_ |= 1ULL << (ctaSm_[c] & 63);

    // Warm L1 lines: residue of previous iterations holding the
    // (re-)initialised values. Only used SMs are reset and warmed:
    // the rest are never read (see usedSms_), so their L1Warm draws —
    // the sampler's stream depends on them — are made as irrelevant
    // chances, one skipChances call per run of unused SMs. A dead
    // line's warmth is unobservable (see l1Live_): its draw is
    // irrelevant too.
    const double warm_p = chip_->l1WarmProb;
    int next_sm = 0; // first SM whose draws are not yet made
    for (uint64_t m = usedSms_; m; m &= m - 1) {
        int s = std::countr_zero(m);
        if (s > next_sm)
            cp.skipChances(ChoiceKind::L1Warm, warm_p,
                           (s - next_sm) * numGlobalLocs_);
        next_sm = s + 1;
        SmState &sm = sms_[s];
        sm.buffer.clear();
        for (int i = 0; i < nlocs; ++i) {
            bool warm = !locShared(i) &&
                        cp.chance(ChoiceKind::L1Warm, warm_p, l1Live_);
            sm.l1[i] = warm ? L1Line{locInit_[i], true, false, false}
                            : L1Line{};
        }
    }
    if (chip_->numSMs > next_sm)
        cp.skipChances(ChoiceKind::L1Warm, warm_p,
                       (chip_->numSMs - next_sm) * numGlobalLocs_);

    for (int t = 0; t < nthreads; ++t) {
        ThreadState &ts = threads_[t];
        ts.ctaId = threadCta_[t];
        ts.smId = ctaSm_[ts.ctaId];
        ts.pc = 0;
        ts.executed = 0;
        ts.frontDone = false;
        const auto &init = compiled_[t].regInit;
        std::copy(init.begin(), init.end(), ts.regs.begin());
        ts.pendingRegs = 0;
        ts.window.clear();
        ts.wroteLocs = 0;
        if (opts_.inc.threadSync)
            ts.startDelay =
                static_cast<int>(cp.pick(ChoiceKind::StartSkew, 3));
        else
            ts.startDelay = static_cast<int>(
                cp.pick(ChoiceKind::StartSkew, kStartSkewMax));
    }
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

litmus::FinalState
Machine::run(Rng &rng)
{
    RngChoice choices(rng);
    return runLight(choices) ? collectFinalState() : litmus::FinalState{};
}

/**
 * Build the actor table for one Schedule choice: threads first, then
 * the drain actors, mirroring the index space the scheduler picks
 * over. Footprints over-approximate what the slot may touch: for a
 * thread, the union over its window (issue-only slots touch nothing
 * shared, so the union covers them too); a fence or atomic in the
 * window may additionally flush the SM's buffer.
 */
void
Machine::fillActorTable(int nthreads, const int *drain_sms,
                        int ndrains)
{
    actors_.assign(static_cast<size_t>(nthreads + ndrains),
                   ActorOption{});
    for (int t = 0; t < nthreads; ++t) {
        const ThreadState &ts = threads_[t];
        ActorOption &a = actors_[static_cast<size_t>(t)];
        a.id = t;
        a.isDrain = false;
        a.enabled = !ts.done();
        a.foot.sm = ts.smId;
        bool flushes = false;
        for (const auto &e : ts.window) {
            switch (e.kind) {
              case WindowEntry::Kind::Load:
                a.foot.reads |= 1ULL << (e.loc & 63);
                break;
              case WindowEntry::Kind::Store:
                a.foot.writes |= 1ULL << (e.loc & 63);
                break;
              case WindowEntry::Kind::Atomic:
                a.foot.reads |= 1ULL << (e.loc & 63);
                a.foot.writes |= 1ULL << (e.loc & 63);
                flushes = true;
                break;
              case WindowEntry::Kind::Fence:
                // A fence's invalidation sweep touches the SM's L1
                // lines for *any* location, and whether a line is
                // stale depends on every remote store's ordering
                // relative to the fence: conservatively conflict
                // with all memory events.
                a.foot.reads = ~0ULL;
                a.foot.writes = ~0ULL;
                flushes = true;
                break;
            }
        }
        if (flushes) {
            for (const auto &b : sms_[ts.smId].buffer)
                a.foot.writes |= 1ULL << (b.loc & 63);
        }
    }
    for (int d = 0; d < ndrains; ++d) {
        int sm = drain_sms[d];
        ActorOption &a = actors_[static_cast<size_t>(nthreads + d)];
        a.id = nthreads + sm;
        a.isDrain = true;
        a.enabled = true;
        a.foot.sm = sm;
        for (const auto &b : sms_[sm].buffer)
            a.foot.writes |= 1ULL << (b.loc & 63);
    }
}

litmus::FinalState
Machine::run(ChoiceProvider &cp)
{
    return runLight(cp) ? collectFinalState() : litmus::FinalState{};
}

litmus::FinalState
Machine::resume(const Snapshot &snap, ChoiceProvider &cp)
{
    return resumeLight(snap, cp) ? collectFinalState()
                                 : litmus::FinalState{};
}

template <typename P>
bool
Machine::startRun(P &cp)
{
    resetRun(cp);
    truncated_ = false;
    eagerIssue_ = cp.eagerIssue();
    if (eager<P>()) {
        // Eager issue starts every thread at its first block point, so
        // each thread slot has an entry to commit.
        for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
            if (threads_[t].startDelay == 0)
                issueToBlock(t, cp);
        }
    }
    return mainLoop(0, cp);
}

bool
Machine::runLight(ChoiceProvider &cp)
{
    return startRun(cp);
}

bool
Machine::runLight(RngChoice &cp)
{
    return startRun(cp);
}

bool
Machine::resumeLight(const Snapshot &snap, ChoiceProvider &cp)
{
    restore(snap);
    eagerIssue_ = cp.eagerIssue();
    return mainLoop(snap.step, cp);
}

litmus::FinalState
Machine::finalState() const
{
    return collectFinalState();
}

template <typename P>
bool
Machine::mainLoop(int start_step, P &cp)
{
    int nthreads = static_cast<int>(threads_.size());
    // A thread is done once its front end is done and its window
    // empty, and only its own slots change either: the count of live
    // threads falls only after the picked thread acts.
    int live = 0;
    for (const auto &ts : threads_)
        live += ts.done() ? 0 : 1;
    int step = start_step;
    for (; step < opts_.maxMicroSteps && live > 0; ++step) {
        curStep_ = step;
        // Actors: threads plus (under stress) one drain actor per SM
        // with a non-empty buffer. Buffers fill only from their own
        // SM's threads, so the used SMs, ascending, are the full list.
        int ndrains = 0;
        int drain_sms[64];
        if (stress() && chip_->storeBuffer) {
            for (uint64_t m = usedSms_; m; m &= m - 1) {
                int s = std::countr_zero(m);
                if (!sms_[s].buffer.empty())
                    drain_sms[ndrains++] = s;
            }
        }
        const ActorOption *table = nullptr;
        if (cp.wantsActors()) {
            fillActorTable(nthreads, drain_sms, ndrains);
            table = actors_.data();
        }
        size_t picked = cp.pickActor(
            table, static_cast<size_t>(nthreads + ndrains));
        if (picked == ChoiceProvider::kAbortRun) {
            // The provider abandoned the iteration (a searcher cut a
            // replay whose continuation it already knows).
            return false;
        }
        int choice = static_cast<int>(picked);
        if (choice < nthreads) {
            if (!threads_[choice].done()) {
                threadAction(choice, cp);
                live -= threads_[choice].done() ? 1 : 0;
            }
        } else {
            int sm = drain_sms[choice - nthreads];
            if (!cp.chance(ChoiceKind::DrainLazy,
                           chip_->drainLaziness))
                drainOne(sm, cp, false);
        }
    }

    curStep_ = step;

    // If the step budget ran out (imported tests with unbounded
    // spins), finish deterministically in order.
    if (live > 0)
        truncated_ = true;
    for (int t = 0; t < nthreads; ++t) {
        ThreadState &ts = threads_[t];
        int guard = opts_.maxMicroSteps;
        while (!ts.done() && guard-- > 0) {
            if (!ts.window.empty()) {
                WindowEntry e = ts.window.front();
                ts.window.erase(0);
                perform(t, e, cp);
            } else {
                ts.startDelay = 0;
                issueOne(t);
            }
        }
    }

    for (uint64_t m = usedSms_; m; m &= m - 1)
        drainAll(std::countr_zero(m), cp);

    return true;
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

void
Machine::snapshot(Snapshot &out) const
{
    // Vector copy-assignment reuses the target's capacity (and its
    // elements' nested capacity), so a pooled snapshot costs only the
    // element copies after first use. SMs hosting no thread are
    // never read (see Machine::usedSms_) and skipped: restore() leaves
    // the machine's own copies in place.
    out.threads = threads_;
    uint64_t used = 0;
    for (const auto &ts : threads_)
        used |= 1ULL << (ts.smId & 63);
    out.sms.resize(sms_.size());
    for (size_t s = 0; s < sms_.size(); ++s) {
        if ((used >> (s & 63)) & 1)
            out.sms[s] = sms_[s];
    }
    out.l2 = l2_;
    out.sharedMem = sharedMem_;
    out.step = curStep_;
    out.truncated = truncated_;
}

void
Machine::restore(const Snapshot &snap)
{
    usedSms_ = 0;
    for (const auto &ts : snap.threads)
        usedSms_ |= 1ULL << (ts.smId & 63);
    threads_ = snap.threads;
    for (size_t s = 0; s < sms_.size(); ++s) {
        if ((usedSms_ >> (s & 63)) & 1)
            sms_[s] = snap.sms[s];
    }
    l2_ = snap.l2;
    sharedMem_ = snap.sharedMem;
    truncated_ = snap.truncated;
}

// ---------------------------------------------------------------------
// Thread actions
// ---------------------------------------------------------------------

template <typename P>
void
Machine::threadAction(int tid, P &cp)
{
    ThreadState &ts = threads_[tid];
    if (ts.startDelay > 0) {
        --ts.startDelay;
        return;
    }
    if (eager<P>()) {
        // Commit first, then issue: the commit retires an entry the
        // slot's footprint (fillActorTable) already covers, and the
        // issues after it touch only this thread's registers, pc and
        // window. An entry issued before the commit could retire in
        // the same slot outside that footprint and escape the sleep
        // sets' independence check.
        if (!ts.window.empty())
            commitOne(tid, cp);
        issueToBlock(tid, cp);
        return;
    }
    bool can_commit = !ts.window.empty();
    bool can_issue = false;
    if (!ts.frontDone) {
        if (ts.pc >= static_cast<int>(compiled_[tid].instrs.size())) {
            ts.frontDone = true;
        } else if (ts.window.size() < kWindowCap) {
            can_issue =
                issueReady(ts, compiled_[tid].instrs[ts.pc]);
        }
    }

    if (can_issue &&
        (!can_commit ||
         cp.chance(ChoiceKind::IssueOrCommit, 0.6)))
        issueOne(tid);
    else if (can_commit)
        commitOne(tid, cp);
}

template <typename P>
void
Machine::issueToBlock(int tid, P &cp)
{
    ThreadState &ts = threads_[tid];
    const std::vector<CInstr> &instrs = compiled_[tid].instrs;
    while (!ts.frontDone) {
        if (ts.pc >= static_cast<int>(instrs.size())) {
            ts.frontDone = true;
            return;
        }
        const CInstr &in = instrs[ts.pc];
        if (ts.window.size() >= kWindowCap || !issueReady(ts, in))
            return;
        // At a hazard the issue time decides a register value, so it
        // stays a choice: issue now, or after a later commit.
        if (issueHazard(ts, in) &&
            !cp.chance(ChoiceKind::IssueOrCommit, 0.6))
            return;
        issueOne(tid);
    }
}

bool
Machine::issueHazard(const ThreadState &ts, const CInstr &in) const
{
    uint64_t window_dsts = 0;
    for (const auto &e : ts.window) {
        if (e.dst >= 0)
            window_dsts |= 1ULL << e.dst;
    }
    // A read can only hit here after two entries shared a dst (the
    // first commit clears the pending bit); a write is a WAW with an
    // in-flight entry.
    return (in.touchRegs & window_dsts) != 0;
}

void
Machine::issueOne(int tid)
{
    ThreadState &ts = threads_[tid];
    const CThread &ct = compiled_[tid];
    if (ts.pc >= static_cast<int>(ct.instrs.size())) {
        ts.frontDone = true;
        return;
    }
    const CInstr &in = ct.instrs[ts.pc];
    if (++ts.executed > opts_.maxMicroSteps) {
        // Unbounded loop guard: stop fetching.
        ts.frontDone = true;
        truncated_ = true;
        return;
    }

    auto val = [&](const COperand &op) -> int64_t {
        return op.isImm ? op.imm : ts.regs[op.reg];
    };

    // Guard.
    if (in.guardReg >= 0) {
        bool set = ts.regs[in.guardReg] != 0;
        bool execute = in.guardNeg ? !set : set;
        if (!execute) {
            ++ts.pc;
            return;
        }
    }

    switch (in.op) {
      case ptx::Opcode::Nop:
        ++ts.pc;
        return;
      case ptx::Opcode::Bra:
        ts.pc = in.braTarget;
        return;
      case ptx::Opcode::Mov:
      case ptx::Opcode::Cvt:
        ts.regs[in.dst] = val(in.src0);
        ++ts.pc;
        return;
      case ptx::Opcode::Add:
      case ptx::Opcode::Sub:
      case ptx::Opcode::And:
      case ptx::Opcode::Or:
      case ptx::Opcode::Xor:
      case ptx::Opcode::SetpEq:
      case ptx::Opcode::SetpNe:
        ts.regs[in.dst] =
            ptx::aluResult(in.op, val(in.src0), val(in.src1));
        ++ts.pc;
        return;
      default:
        break;
    }

    // Memory operations enter the window.
    WindowEntry e;
    e.op = in.op;
    e.cacheOp = in.cacheOp;
    e.scope = in.scope;
    if (in.op == ptx::Opcode::Membar) {
        e.kind = WindowEntry::Kind::Fence;
    } else {
        int64_t addr = val(in.addr);
        int loc = in.addr.isImm ? in.addrLoc : locIndexOf(addr);
        if (loc < 0) {
            warn("test '%s': T%d accesses non-testing address %lld;"
                 " treating as nop",
                 test_->name.c_str(), tid,
                 static_cast<long long>(addr));
            ++ts.pc;
            return;
        }
        e.loc = loc;
        e.shared = locShared(loc);
        e.dst = in.dst;
        switch (in.op) {
          case ptx::Opcode::Ld:
            e.kind = WindowEntry::Kind::Load;
            break;
          case ptx::Opcode::St:
            e.kind = WindowEntry::Kind::Store;
            e.src0 = val(in.src0);
            break;
          case ptx::Opcode::AtomCas:
            e.kind = WindowEntry::Kind::Atomic;
            e.src0 = val(in.src0);
            e.src1 = val(in.src1);
            break;
          case ptx::Opcode::AtomExch:
          case ptx::Opcode::AtomAdd:
            e.kind = WindowEntry::Kind::Atomic;
            e.src0 = val(in.src0);
            break;
          case ptx::Opcode::AtomInc:
            e.kind = WindowEntry::Kind::Atomic;
            break;
          default:
            panic("unexpected opcode in window path");
        }
        if (e.dst >= 0)
            ts.pendingRegs |= 1ULL << e.dst;
    }
    ts.window.push_back(e);
    ++ts.pc;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

double
Machine::corrJitterFactor() const
{
    // The load-load hazard needs latency jitter on the testing
    // warp's loads. Bank conflicts deliver it directly -- but only
    // when thread randomisation moves the testing threads into the
    // conflicting lanes (Tab. 6: column 5 shows nothing, column 6
    // does); memory stress delivers a much weaker, indirect jitter
    // (columns 9-12 are an order of magnitude below column 8).
    if (opts_.inc.bankConflicts && opts_.inc.threadRandomisation)
        return 1.0;
    if (opts_.inc.bankConflicts && stress())
        return 0.5;
    if (stress())
        return 0.04;
    return 0.0;
}

bool
Machine::fenceActiveFor(int tid, const WindowEntry &fence,
                        bool target_shared) const
{
    if (target_shared)
        return true; // shared memory is CTA-local; every scope orders
    if (ptx::scopeAtLeast(fence.scope, ptx::Scope::Gl))
        return true;
    // membar.cta orders the global stream only when an in-CTA
    // observer exists (same-SM streams are snooped in order).
    return hasSameCtaPeer_[tid];
}

double
Machine::pairPass(int tid, const WindowEntry &older,
                  const WindowEntry &younger) const
{
    using Kind = WindowEntry::Kind;

    if (younger.kind == Kind::Fence)
        return 0.0; // fences commit in order

    if (older.kind == Kind::Fence) {
        if (fenceActiveFor(tid, older, younger.shared))
            return 0.0;
        // Transparent inter-CTA membar.cta; partially effective.
        return 1.0 - chip_->ctaFenceInterBlock;
    }

    // Same-location accesses: ordered, except the read-read hazard.
    // The hazard only arises between loads on the same path (same
    // cache operator): Fig. 4's mixed .cg/.ca pairs show it is almost
    // absent across paths (GTX6: 2/100k vs 9599/100k for pure coRR).
    if (older.loc == younger.loc && older.shared == younger.shared) {
        if (older.kind == Kind::Load && younger.kind == Kind::Load &&
            older.cacheOp == younger.cacheOp && chip_->allowCoRR)
            return chip_->corrPass * corrJitterFactor();
        return 0.0;
    }

    // Shared-memory pairs: one jittered pass probability.
    if (older.shared && younger.shared) {
        if (stress() || opts_.inc.bankConflicts)
            return chip_->sharedPass;
        return 0.0;
    }
    if (older.shared != younger.shared) {
        // Mixed spaces: treat like the global path.
    }

    // Global path. On Nvidia the reordering machinery only engages
    // under memory stress (Tab. 6: columns 1-8 show no inter-CTA
    // weak behaviours on Titan); AMD reorders without it. The
    // reader-side load-load reorder additionally engages under
    // bank-conflict jitter when randomisation steers the testing
    // warp into it (Titan's columns 6 and 8 show mp without stress).
    double bank_wr = opts_.inc.bankConflicts ? chip_->wrPassBank : 0.0;
    bool engaged = stress() || !chip_->reorderNeedsStress;

    // Bank conflicts serialise Nvidia's LSU pipeline: the stress-
    // engaged reordering machinery is strongly damped (Tab. 6 shows
    // lb dropping from 2247 to 486 when bank conflicts are added to
    // column 12). AMD is unaffected. On AMD the conflicts instead add
    // reader-side jitter that *boosts* load-load reordering (Tab. 6:
    // HD7970 mp roughly doubles with bank conflicts).
    double damp = 1.0;
    double rr_boost = 1.0;
    if (opts_.inc.bankConflicts) {
        if (chip_->reorderNeedsStress)
            damp = 0.12;
        else
            rr_boost = 2.5;
    }

    auto reads = [](const WindowEntry &e) {
        return e.kind == Kind::Load || e.kind == Kind::Atomic;
    };
    auto writes = [](const WindowEntry &e) {
        return e.kind == Kind::Store || e.kind == Kind::Atomic;
    };

    if (younger.kind == Kind::Load) {
        if (older.kind == Kind::Store)
            return (engaged ? chip_->wrPass * damp : 0.0) + bank_wr;
        // Past a load or an atomic's read part. Bank-conflict jitter
        // with randomisation drives this even without stress (Titan's
        // columns 6 and 8 show mp without memory stress).
        double rr = engaged ? chip_->rrPass * damp : 0.0;
        if (opts_.inc.bankConflicts && opts_.inc.threadRandomisation)
            rr = std::max(rr, chip_->rrPass * rr_boost);
        else if (engaged)
            rr = std::max(rr, chip_->rrPass * damp * rr_boost);
        return rr;
    }
    if (!engaged)
        return 0.0;
    if (younger.kind == Kind::Store) {
        if (reads(older))
            return chip_->rwPass * damp; // lb (atomics don't fence)
        return chip_->wwPass * damp;     // bufferless writer-side mp
    }
    // younger atomic
    if (writes(older) && older.kind != Kind::Load)
        return chip_->atomPass * damp;
    return chip_->rwPass * damp;
}

template <typename P>
void
Machine::commitOne(int tid, P &cp)
{
    ThreadState &ts = threads_[tid];
    SmState &sm = sms_[ts.smId];

    // An active fence at the head must wait for the store buffer; the
    // commit slot drains instead.
    const WindowEntry &head = ts.window.front();
    if (head.kind == WindowEntry::Kind::Fence &&
        fenceActiveFor(tid, head, false) && !sm.buffer.empty()) {
        drainOne(ts.smId, cp, true);
        return;
    }

    // Select the entry to retire: try younger entries with their
    // pass probabilities, else the oldest.
    size_t chosen = 0;
    for (size_t i = 1; i < ts.window.size(); ++i) {
        double p = 1.0;
        for (size_t j = 0; j < i && p > 0.0; ++j)
            p = std::min(p, pairPass(tid, ts.window[j], ts.window[i]));
        if (p > 0.0 && cp.chance(ChoiceKind::CommitBypass, p)) {
            chosen = i;
            break;
        }
    }

    if (chosen == 0 && ts.window[0].delay > 0) {
        // A bypassed entry replays before it can retire.
        --ts.window[0].delay;
        return;
    }
    for (size_t j = 0; j < chosen; ++j)
        ts.window[j].delay += cp.delayBump();

    WindowEntry e = ts.window[chosen];
    ts.window.erase(chosen);
    perform(tid, e, cp);
}

// ---------------------------------------------------------------------
// Memory system
// ---------------------------------------------------------------------

void
Machine::writeToL2(int loc, int64_t value, int writer_sm)
{
    l2_[loc] = value;
    for (uint64_t m = usedSms_; m; m &= m - 1) {
        int s = std::countr_zero(m);
        L1Line &line = sms_[s].l1[loc];
        if (!line.valid)
            continue;
        if (line.value == value) {
            line.stale = false;
            continue;
        }
        line.stale = true;
        line.staleFromOwnSM = s == writer_sm;
    }
}

template <typename P>
void
Machine::drainOne(int sm_id, P &cp, bool in_order_only)
{
    SmState &sm = sms_[sm_id];
    if (sm.buffer.empty())
        return;
    size_t pick = 0;
    if (!in_order_only && sm.buffer.size() > 1 &&
        cp.chance(ChoiceKind::DrainReorder, chip_->drainOutOfOrder)) {
        // Out-of-order drain, preserving per-location order: a
        // younger entry may drain early only if no older entry
        // targets the same location.
        size_t cand = 1 + static_cast<size_t>(cp.pick(
                              ChoiceKind::DrainIndex,
                              sm.buffer.size() - 1));
        bool blocked = false;
        for (size_t j = 0; j < cand; ++j) {
            if (sm.buffer[j].loc == sm.buffer[cand].loc)
                blocked = true;
        }
        if (!blocked)
            pick = cand;
    }
    BufferEntry e = sm.buffer[pick];
    sm.buffer.erase(sm.buffer.begin() +
                    static_cast<std::ptrdiff_t>(pick));
    writeToL2(e.loc, e.value, sm_id);
}

template <typename P>
void
Machine::drainAll(int sm_id, P &cp)
{
    while (!sms_[sm_id].buffer.empty())
        drainOne(sm_id, cp, true);
}

template <typename P>
int64_t
Machine::readGlobal(int tid, const WindowEntry &e, P &cp)
{
    ThreadState &ts = threads_[tid];
    SmState &sm = sms_[ts.smId];

    // Store-to-load forwarding from the SM's own buffer.
    for (auto it = sm.buffer.rbegin(); it != sm.buffer.rend(); ++it) {
        if (it->loc == e.loc)
            return it->value;
    }

    bool own_wrote = (ts.wroteLocs >> e.loc) & 1;
    if (e.cacheOp == ptx::CacheOp::Ca && !own_wrote) {
        L1Line &line = sm.l1[e.loc];
        if (line.valid) {
            if (!line.stale)
                return line.value;
            double serve = stress() ? chip_->l1StaleServe : 0.02;
            if (cp.chance(ChoiceKind::L1StaleServe, serve))
                return line.value;
            // Self-invalidate; the miss below refills the line.
        }
        int64_t v = l2_[e.loc];
        line = L1Line{v, true, false, false};
        return v;
    }

    // .cg (and volatile / default) reads the L2; on chips honouring
    // the manual it also evicts a matching L1 line.
    if (cp.chance(ChoiceKind::CgEvict, chip_->cgLoadEvicts, l1Live_))
        sm.l1[e.loc].valid = false;
    return l2_[e.loc];
}

template <typename P>
void
Machine::applyFenceInvalidation(int sm_id, ptx::Scope scope, P &cp)
{
    SmState &sm = sms_[sm_id];
    for (auto &line : sm.l1) {
        if (!line.valid || !line.stale)
            continue;
        double p = line.staleFromOwnSM ? chip_->invalSame.at(scope)
                                       : chip_->invalInter.at(scope);
        if (cp.chance(ChoiceKind::FenceInval, p, l1Live_))
            line.valid = false;
    }
}

template <typename P>
void
Machine::perform(int tid, const WindowEntry &e, P &cp)
{
    ThreadState &ts = threads_[tid];
    SmState &sm = sms_[ts.smId];

    switch (e.kind) {
      case WindowEntry::Kind::Fence: {
        bool active = fenceActiveFor(tid, e, false);
        // Even an inter-CTA-transparent membar.cta usually flushes
        // the SM's buffer (it orders the SM-local stream); it leaks
        // with probability 1 - ctaFenceInterBlock, which is what
        // keeps inter-CTA lb+membar.ctas observable (Sec. 6).
        if (active || cp.chance(ChoiceKind::FenceLeak,
                                chip_->ctaFenceInterBlock))
            drainAll(ts.smId, cp);
        // Reader-side invalidation of stale L1 lines, with per-chip
        // per-scope success probabilities (Figs. 3 and 4).
        applyFenceInvalidation(ts.smId, e.scope, cp);
        return;
      }

      case WindowEntry::Kind::Load: {
        int64_t v;
        if (e.shared)
            v = sharedMem_[ts.ctaId][e.loc];
        else
            v = readGlobal(tid, e, cp);
        if (e.dst >= 0) {
            ts.regs[e.dst] = v;
            ts.pendingRegs &= ~(1ULL << e.dst);
        }
        return;
      }

      case WindowEntry::Kind::Store: {
        if (e.shared) {
            sharedMem_[ts.ctaId][e.loc] = e.src0;
            return;
        }
        ts.wroteLocs |= 1ULL << e.loc;
        if (cp.chance(ChoiceKind::CgEvict, chip_->cgStoreEvicts, l1Live_))
            sm.l1[e.loc].valid = false;
        // Bank conflicts serialise the pipeline enough that stores
        // often go straight to the L2 (Tab. 6: Titan sb collapses
        // from 6673 to 749 when bank conflicts are added). A store
        // must never bypass a buffered store to the same location:
        // per-location coherence would break.
        bool same_loc_buffered = false;
        for (const auto &b : sm.buffer) {
            if (b.loc == e.loc)
                same_loc_buffered = true;
        }
        bool bypass = opts_.inc.bankConflicts && !same_loc_buffered &&
                      cp.chance(ChoiceKind::StoreBypass, 0.5);
        if (chip_->storeBuffer && stress() && !bypass) {
            sm.buffer.push_back({e.loc, e.src0});
        } else {
            writeToL2(e.loc, e.src0, ts.smId);
        }
        return;
      }

      case WindowEntry::Kind::Atomic: {
        int64_t old;
        int64_t *cell;
        if (e.shared) {
            cell = &sharedMem_[ts.ctaId][e.loc];
            old = *cell;
        } else {
            // On some chips atomics serialise against the SM's
            // pending stores before acting at the L2.
            if (cp.chance(ChoiceKind::AtomFlush, chip_->atomFlush))
                drainAll(ts.smId, cp);
            // Atomics act at the L2 directly; same-location buffered
            // stores must land first (PTX annuls atomic guarantees
            // when plain stores race, but per-location order holds).
            for (;;) {
                bool found = false;
                for (size_t i = 0; i < sm.buffer.size(); ++i) {
                    if (sm.buffer[i].loc == e.loc) {
                        found = true;
                        break;
                    }
                }
                if (!found)
                    break;
                drainOne(ts.smId, cp, true);
            }
            cell = &l2_[e.loc];
            old = *cell;
        }

        if (auto new_val = ptx::atomicWrite(e.op, old, e.src0, e.src1)) {
            if (e.shared) {
                *cell = *new_val;
            } else {
                writeToL2(e.loc, *new_val, ts.smId);
                ts.wroteLocs |= 1ULL << e.loc;
            }
        }
        if (e.dst >= 0) {
            ts.regs[e.dst] = old;
            ts.pendingRegs &= ~(1ULL << e.dst);
        }
        return;
      }
    }
}

// ---------------------------------------------------------------------
// State encoding (model-checker state key)
// ---------------------------------------------------------------------

namespace {

/** Byte/word consumers for the one canonical state traversal: the
 * string sink materialises the encoding, the hash sink folds the same
 * byte stream straight into a 128-bit digest. */
struct StringSink
{
    std::string &out;

    void
    put64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void put8(uint8_t v) { out.push_back(static_cast<char>(v)); }
};

struct HashSink
{
    Hash128 &h;

    void put64(uint64_t v) { h.put64(v); }
    void put8(uint8_t v) { h.put8(v); }
};

/** Two ints side by side in one word, each at its full width. */
uint64_t
pack32(int lo, int hi)
{
    return static_cast<uint64_t>(static_cast<uint32_t>(lo)) |
           (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32);
}

} // anonymous namespace

uint64_t
Machine::executedSignature() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &ts : threads_) {
        h ^= static_cast<uint64_t>(ts.executed);
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename Sink>
void
Machine::encodeTo(Sink &sink) const
{
    // SMs hosting no testing thread are invariant for the rest of the
    // run: their buffers only fill from their own threads (there are
    // none) and their L1 lines are never served to anyone, so they
    // cannot influence any continuation. Encoding the used-SM mask
    // and then only the used SMs keeps the key injective while
    // skipping the constant majority (8-SM chips host 2-4 CTAs).
    // Likewise a dead L1 (see l1Live_) reaches no register and no
    // relevant choice: its lines are encoded only when live, which is
    // fixed at compile, so the key stays injective.
    uint64_t used = 0;
    for (const auto &ts : threads_)
        used |= 1ULL << (ts.smId & 63);

    // Fields are packed into whole words, each at its full width (or
    // its full enumerator range), so the packing stays injective:
    // the header is (pc, startDelay) and (frontDone, #regs, #window);
    // a window entry is (kind, op, cacheOp, scope, shared, delay) and
    // (loc, dst), then its two operands. kind, op and cacheOp get a
    // byte each and scope seven bits; #regs gets 31 bits and #window
    // (at most 8 entries, threadAction) 32.
    static_assert(static_cast<int>(WindowEntry::Kind::Fence) < 256);
    static_assert(static_cast<int>(ptx::Opcode::Bra) < 256);
    static_assert(static_cast<int>(ptx::CacheOp::Cv) < 256);
    static_assert(static_cast<int>(ptx::Scope::Sys) < 128);
    static_assert(litmus::Test::maxRegisters < (1 << 30));
    for (const auto &ts : threads_) {
        sink.put64(pack32(ts.pc, ts.startDelay));
        sink.put64(static_cast<uint64_t>(ts.frontDone) |
                   (static_cast<uint64_t>(ts.regs.size()) << 1) |
                   (static_cast<uint64_t>(ts.window.size()) << 32));
        sink.put64(ts.pendingRegs);
        sink.put64(ts.wroteLocs);
        for (int64_t r : ts.regs)
            sink.put64(static_cast<uint64_t>(r));
        for (const auto &e : ts.window) {
            sink.put64(static_cast<uint64_t>(e.kind) |
                       (static_cast<uint64_t>(e.op) << 8) |
                       (static_cast<uint64_t>(e.cacheOp) << 16) |
                       (static_cast<uint64_t>(e.scope) << 24) |
                       (static_cast<uint64_t>(e.shared) << 31) |
                       (static_cast<uint64_t>(
                            static_cast<uint32_t>(e.delay))
                        << 32));
            sink.put64(pack32(e.loc, e.dst));
            sink.put64(static_cast<uint64_t>(e.src0));
            sink.put64(static_cast<uint64_t>(e.src1));
        }
    }
    sink.put64(used);
    for (size_t s = 0; s < sms_.size(); ++s) {
        if (!((used >> (s & 63)) & 1))
            continue;
        const SmState &sm = sms_[s];
        sink.put64(sm.buffer.size());
        for (const auto &b : sm.buffer) {
            sink.put64(static_cast<uint64_t>(b.loc));
            sink.put64(static_cast<uint64_t>(b.value));
        }
        if (!l1Live_)
            continue;
        for (const auto &line : sm.l1) {
            if (!line.valid) {
                sink.put8(0);
                continue;
            }
            sink.put8(static_cast<uint8_t>(
                1 | (line.stale ? 2 : 0) |
                (line.staleFromOwnSM ? 4 : 0)));
            sink.put64(static_cast<uint64_t>(line.value));
        }
    }
    for (int64_t v : l2_)
        sink.put64(static_cast<uint64_t>(v));
    for (const auto &mem : sharedMem_) {
        for (int64_t v : mem)
            sink.put64(static_cast<uint64_t>(v));
    }
}

void
Machine::encodeState(std::string &out) const
{
    StringSink sink{out};
    encodeTo(sink);
}

void
Machine::hashState(Hash128 &h) const
{
    HashSink sink{h};
    encodeTo(sink);
}

// ---------------------------------------------------------------------
// Final state
// ---------------------------------------------------------------------

Digest128
Machine::outcomeDigest() const
{
    // Exactly the fields collectFinalState materialises, in the same
    // order: equal digests imply equal final states.
    Hash128 h;
    for (const auto &ts : threads_) {
        h.put64(ts.regs.size());
        for (int64_t r : ts.regs)
            h.put64(static_cast<uint64_t>(r));
    }
    for (size_t i = 0; i < locInit_.size(); ++i) {
        if (locShared(static_cast<int>(i)))
            h.put64(static_cast<uint64_t>(
                sharedMem_.empty() ? locInit_[i]
                                   : sharedMem_[0][i]));
        else
            h.put64(static_cast<uint64_t>(l2_[i]));
    }
    return h.digest();
}

litmus::FinalState
Machine::collectFinalState() const
{
    litmus::FinalState st;
    for (size_t t = 0; t < threads_.size(); ++t) {
        const auto &names = regNames_[t];
        for (size_t r = 0; r < names.size(); ++r)
            st.regs[{static_cast<int>(t), names[r]}] =
                threads_[t].regs[r];
    }
    for (size_t i = 0; i < locInit_.size(); ++i) {
        const std::string &name = test_->locations[i].name;
        if (locShared(static_cast<int>(i)))
            st.mem[name] = sharedMem_.empty()
                               ? locInit_[i]
                               : sharedMem_[0][static_cast<int>(i)];
        else
            st.mem[name] = l2_[i];
    }
    return st;
}

} // namespace gpulitmus::sim
