#include "analysis/summary.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "common/log.h"

namespace gpulitmus::analysis {

namespace {

/**
 * May-set of values a register can hold: a small set of constants or
 * "unknown". Used to resolve register-addressed memory operands; the
 * set is a superset of the values any execution produces, so the
 * derived location sets are sound over-approximations.
 */
struct ValSet
{
    bool unknown = false;
    std::vector<int64_t> vals; // sorted, unique

    static constexpr size_t kCap = 8;

    static ValSet top()
    {
        ValSet v;
        v.unknown = true;
        return v;
    }
    static ValSet one(int64_t x) { return ValSet{false, {x}}; }

    void insert(int64_t x)
    {
        if (unknown)
            return;
        auto it = std::lower_bound(vals.begin(), vals.end(), x);
        if (it != vals.end() && *it == x)
            return;
        vals.insert(it, x);
        if (vals.size() > kCap) {
            unknown = true;
            vals.clear();
        }
    }

    bool join(const ValSet &other) // returns true if changed
    {
        if (unknown)
            return false;
        if (other.unknown) {
            unknown = true;
            vals.clear();
            return true;
        }
        bool changed = false;
        for (int64_t v : other.vals) {
            size_t before = vals.size();
            bool wasUnknown = unknown;
            insert(v);
            if (unknown != wasUnknown || vals.size() != before)
                changed = true;
            if (unknown)
                break;
        }
        return changed;
    }

    bool operator==(const ValSet &other) const = default;
};

ValSet
binop(const ValSet &a, const ValSet &b, ptx::Opcode op)
{
    if (op == ptx::Opcode::And) {
        // "and r,src,MASK" against an unknown source still has a
        // small result set when the mask has few bits — the Fig. 13
        // artificial-dependency idiom (and r3,r1,0x80000000).
        auto submasks = [](int64_t mask) {
            std::vector<int64_t> out;
            if (__builtin_popcountll(static_cast<uint64_t>(mask)) <=
                3) {
                uint64_t m = static_cast<uint64_t>(mask);
                for (uint64_t s = m;; s = (s - 1) & m) {
                    out.push_back(static_cast<int64_t>(s));
                    if (s == 0)
                        break;
                }
            }
            return out;
        };
        if (a.unknown && !b.unknown && b.vals.size() == 1) {
            ValSet r;
            auto subs = submasks(b.vals[0]);
            if (!subs.empty()) {
                for (int64_t s : subs)
                    r.insert(s);
                return r;
            }
        }
        if (b.unknown && !a.unknown && a.vals.size() == 1) {
            ValSet r;
            auto subs = submasks(a.vals[0]);
            if (!subs.empty()) {
                for (int64_t s : subs)
                    r.insert(s);
                return r;
            }
        }
    }
    if (a.unknown || b.unknown)
        return ValSet::top();
    ValSet r;
    for (int64_t x : a.vals) {
        for (int64_t y : b.vals) {
            r.insert(ptx::aluResult(op, x, y));
            if (r.unknown)
                return r;
        }
    }
    return r;
}

using RegState = std::map<std::string, ValSet>;

bool
joinState(RegState &into, const RegState &from)
{
    bool changed = false;
    for (const auto &[reg, vs] : from) {
        auto it = into.find(reg);
        if (it == into.end()) {
            into.emplace(reg, vs);
            changed = true;
        } else if (it->second.join(vs)) {
            changed = true;
        }
    }
    return changed;
}

} // anonymous namespace

ThreadSummary::ThreadSummary(const litmus::Test &test, int tid)
    : test_(&test), tid_(tid)
{
    const ptx::ThreadProgram &prog = test.program.threads[tid];
    n_ = static_cast<int>(prog.instrs.size());

    for (int other = 0; other < test.scopeTree.numThreads(); ++other) {
        if (other != tid && test.scopeTree.sameCta(tid, other))
            hasSameCtaPeer_ = true;
    }

    // --- CFG. Node n_ is the exit.
    succ_.assign(n_, {});
    for (int i = 0; i < n_; ++i) {
        const ptx::Instruction &in = prog.instrs[i];
        if (in.op == ptx::Opcode::Bra) {
            succ_[i].push_back(prog.labelTarget(in.target));
            if (in.hasGuard)
                succ_[i].push_back(i + 1);
        } else {
            succ_[i].push_back(i + 1);
        }
    }

    // --- Reachability (>= 1 step) by BFS from each node.
    reach_.assign(n_, std::vector<uint8_t>(n_, 0));
    for (int from = 0; from < n_; ++from) {
        std::vector<int> work = succ_[from];
        while (!work.empty()) {
            int k = work.back();
            work.pop_back();
            if (k >= n_ || reach_[from][k])
                continue;
            reach_[from][k] = 1;
            for (int s : succ_[k])
                work.push_back(s);
        }
    }

    // --- May-value analysis for address resolution.
    RegState entry;
    for (const auto &ri : test.regInits) {
        if (ri.tid != tid)
            continue;
        entry[ri.reg] = ValSet::one(
            ri.isLocAddress ? test.addressOf(ri.loc) : ri.value);
    }
    auto operandSet = [&](const ptx::Operand &op,
                          const RegState &st) -> ValSet {
        if (op.isImm())
            return ValSet::one(op.imm);
        if (op.isSym())
            return ValSet::one(test.addressOf(op.sym));
        if (op.isReg()) {
            auto it = st.find(op.reg);
            // Registers the machine never initialises read as 0.
            return it == st.end() ? ValSet::one(0) : it->second;
        }
        return ValSet::top();
    };
    std::vector<RegState> in(n_);
    if (n_ > 0)
        in[0] = entry;
    std::vector<uint8_t> dirty(n_, 0);
    std::vector<int> work;
    if (n_ > 0) {
        work.push_back(0);
        dirty[0] = 1;
    }
    while (!work.empty()) {
        int i = work.back();
        work.pop_back();
        dirty[i] = 0;
        const ptx::Instruction &ins = prog.instrs[i];
        RegState out = in[i];
        ValSet written;
        bool writes = false;
        switch (ins.op) {
          case ptx::Opcode::Mov:
          case ptx::Opcode::Cvt:
            written = operandSet(ins.srcs[0], in[i]);
            writes = true;
            break;
          case ptx::Opcode::Add:
          case ptx::Opcode::Sub:
          case ptx::Opcode::And:
          case ptx::Opcode::Or:
          case ptx::Opcode::Xor:
            written = binop(operandSet(ins.srcs[0], in[i]),
                            operandSet(ins.srcs[1], in[i]), ins.op);
            writes = true;
            break;
          case ptx::Opcode::SetpEq:
          case ptx::Opcode::SetpNe:
            written.insert(0);
            written.insert(1);
            writes = true;
            break;
          case ptx::Opcode::Ld:
          case ptx::Opcode::AtomCas:
          case ptx::Opcode::AtomExch:
          case ptx::Opcode::AtomInc:
          case ptx::Opcode::AtomAdd:
            written = ValSet::top(); // value comes from memory
            writes = !ins.dst.empty();
            break;
          default:
            break;
        }
        if (writes && !ins.dst.empty()) {
            if (ins.hasGuard) {
                out[ins.dst].join(written); // may skip: keep old too
            } else {
                out[ins.dst] = written;
            }
        }
        for (int s : succ_[i]) {
            if (s >= n_)
                continue;
            if (joinState(in[s], out) && !dirty[s]) {
                dirty[s] = 1;
                work.push_back(s);
            }
        }
    }

    // --- Event and fence extraction.
    for (int i = 0; i < n_; ++i) {
        const ptx::Instruction &ins = prog.instrs[i];
        Guard g;
        if (ins.hasGuard)
            g = Guard{true, ins.guardNegated, ins.guardReg};
        if (ins.isFence()) {
            fences_.push_back(
                {i, ins.scope, g, ins.srcLine, ins.srcCol});
            continue;
        }
        if (!ins.isMemAccess())
            continue;
        MemEvent e;
        e.tid = tid;
        e.index = i;
        e.isLoad = ins.op == ptx::Opcode::Ld;
        e.isStore = ins.op == ptx::Opcode::St;
        e.isAtomic = ins.isAtomic();
        e.caLoad = e.isLoad && ins.cacheOp == ptx::CacheOp::Ca;
        e.guard = g;
        e.srcLine = ins.srcLine;
        e.srcCol = ins.srcCol;
        e.text = ins.str();
        ValSet addrs = operandSet(ins.addr, in[i]);
        if (addrs.unknown) {
            e.locUnknown = true;
        } else {
            std::set<std::string> locs;
            for (int64_t a : addrs.vals) {
                // Addresses outside the testing locations are nops in
                // the machine; they never touch shared state.
                if (auto loc = test.locationAt(a))
                    locs.insert(*loc);
            }
            if (locs.empty())
                continue; // provably never a real access
            e.locs.assign(locs.begin(), locs.end());
        }
        e.allShared = !e.locUnknown;
        for (const auto &l : e.locs) {
            const auto *def = test.findLocation(l);
            if (!def || def->space != litmus::MemSpace::Shared)
                e.allShared = false;
        }
        events_.push_back(std::move(e));
    }

    // --- Must-dependency closure (the scoreboard): dep_[a][b] set
    // when b's issue provably waits, transitively, for a's perform.
    dep_.assign(n_, std::vector<uint8_t>(n_, 0));
    std::map<std::string, int> regIndex;
    auto regBit = [&](const std::string &r) -> int {
        auto it = regIndex.find(r);
        if (it != regIndex.end())
            return it->second;
        int id = static_cast<int>(regIndex.size());
        regIndex.emplace(r, id);
        return id;
    };
    for (int i = 0; i < n_; ++i) {
        for (const auto &r : prog.instrs[i].regsRead())
            regBit(r);
        if (!prog.instrs[i].regWritten().empty())
            regBit(prog.instrs[i].regWritten());
    }
    if (regIndex.size() <= 64) {
        const uint64_t kAll = ~0ULL;
        for (int a = 0; a < n_; ++a) {
            const ptx::Instruction &src = prog.instrs[a];
            if (!src.readsMemory() || src.dst.empty())
                continue;
            // Must-taint over paths from a: meet is intersection, so
            // a register stays tainted only if every path keeps it
            // data-dependent on a's loaded value.
            std::vector<uint64_t> taintIn(n_, kAll);
            uint64_t seed = 1ULL << regBit(src.dst);
            std::vector<int> wl;
            for (int s : succ_[a]) {
                if (s < n_) {
                    taintIn[s] = seed;
                    wl.push_back(s);
                }
            }
            auto issueReads = [&](const ptx::Instruction &ins,
                                  uint64_t t) {
                for (const auto &r : ins.regsRead()) {
                    if (t & (1ULL << regBit(r)))
                        return true;
                }
                return false;
            };
            while (!wl.empty()) {
                int q = wl.back();
                wl.pop_back();
                const ptx::Instruction &ins = prog.instrs[q];
                uint64_t out = taintIn[q];
                const std::string dst = ins.regWritten();
                if (!dst.empty() && ins.op != ptx::Opcode::Bra &&
                    ins.op != ptx::Opcode::St) {
                    uint64_t bit = 1ULL << regBit(dst);
                    // dst becomes dependent iff an issue input is;
                    // guarded writes may be skipped, so the old
                    // binding must be dependent too.
                    bool dep = issueReads(ins, taintIn[q]);
                    if (dep && !ins.hasGuard)
                        out |= bit;
                    else if (!dep)
                        out &= ~bit;
                    else if (!(taintIn[q] & bit))
                        out &= ~bit;
                }
                for (int s : succ_[q]) {
                    if (s >= n_)
                        continue;
                    uint64_t nm = taintIn[s] & out;
                    if (nm != taintIn[s]) {
                        taintIn[s] = nm;
                        wl.push_back(s);
                    }
                }
            }
            for (int b = 0; b < n_; ++b) {
                if (taintIn[b] == kAll)
                    continue; // not reachable from a
                if (issueReads(prog.instrs[b], taintIn[b]))
                    dep_[a][b] = 1;
            }
        }
    }
}

bool
ThreadSummary::poPath(int a, int b) const
{
    return a >= 0 && a < n_ && b >= 0 && b < n_ && reach_[a][b];
}

bool
ThreadSummary::depOrdered(int a, int b) const
{
    return dep_[a][b] != 0;
}

bool
ThreadSummary::regRedefinedBetween(const std::string &reg, int from,
                                   int to, bool checkFrom) const
{
    const auto &instrs = test_->program.threads[tid_].instrs;
    if (checkFrom && instrs[from].regWritten() == reg)
        return true;
    for (int k = 0; k < n_; ++k) {
        if (instrs[k].regWritten() == reg && reach_[from][k] &&
            reach_[k][to])
            return true;
    }
    return false;
}

bool
ThreadSummary::fenceAdequate(const FenceInfo &f, const MemEvent &a,
                             const MemEvent &b) const
{
    // Mirrors sim::Machine::fenceActiveFor: .gl and wider always
    // drain; membar.cta is only honoured when the thread has a
    // same-CTA testing peer; shared-memory targets are ordered by any
    // scope (they perform in place, no store buffer).
    if (ptx::scopeAtLeast(f.scope, ptx::Scope::Gl))
        return true;
    if (hasSameCtaPeer_)
        return true;
    return a.allShared && b.allShared;
}

bool
ThreadSummary::guardOk(const FenceInfo &f, const MemEvent &a,
                       const MemEvent &b) const
{
    if (!f.guard.present)
        return true;
    // A guarded fence fires whenever a same-guarded neighbour does,
    // provided nothing redefines the guard register in between.
    if (a.guard.present && f.guard == a.guard &&
        !regRedefinedBetween(f.guard.reg, a.index, f.index, true))
        return true;
    if (b.guard.present && f.guard == b.guard &&
        !regRedefinedBetween(f.guard.reg, f.index, b.index, false))
        return true;
    return false;
}

bool
ThreadSummary::allPathsFenced(const MemEvent &a, const MemEvent &b,
                              int *inadequateFence) const
{
    // Does every CFG path from a to b pass a blocking fence? DFS the
    // fence-free fragment; if b is reachable there, some execution
    // lets the pair slip past each other.
    std::vector<uint8_t> seen(n_, 0);
    std::vector<int> work = succ_[a.index];
    bool sawFence = false;
    while (!work.empty()) {
        int k = work.back();
        work.pop_back();
        if (k >= n_ || seen[k])
            continue;
        if (k == b.index)
            return false; // fence-free path exists
        seen[k] = 1;
        const ptx::Instruction &ins =
            test_->program.threads[tid_].instrs[k];
        if (ins.isFence()) {
            const FenceInfo *fi = nullptr;
            for (const auto &f : fences_) {
                if (f.index == k)
                    fi = &f;
            }
            if (fi && fenceAdequate(*fi, a, b) && guardOk(*fi, a, b))
                continue; // blocking: stop exploring through it
            sawFence = true;
            if (inadequateFence && *inadequateFence < 0)
                *inadequateFence = k;
        }
        for (int s : succ_[k])
            work.push_back(s);
    }
    (void)sawFence;
    return true;
}

SegStatus
ThreadSummary::segment(const MemEvent &a, const MemEvent &b) const
{
    if (!poPath(a.index, b.index))
        return {true, SegReason::NoPath, -1};
    // Per-location coherence: the machine keeps same-location
    // accesses in order unless both are plain loads (the coRR
    // hazard, Fig. 6 of the paper).
    bool sameLoc = a.singleLoc() && b.singleLoc() &&
                   a.locs[0] == b.locs[0];
    if (sameLoc && (a.writes() || b.writes()))
        return {true, SegReason::SameLocation, -1};
    // Scoreboard dependencies delay the younger access's issue past
    // the older load's perform — unless the younger is a .ca load,
    // which can observe an L1 line cached before either ran.
    if (!b.caLoad && depOrdered(a.index, b.index))
        return {true, SegReason::Dependency, -1};
    int inadequate = -1;
    if (!b.caLoad && allPathsFenced(a, b, &inadequate))
        return {true, SegReason::Fenced, -1};
    if (b.caLoad)
        return {false, SegReason::StaleL1, -1};
    if (sameLoc)
        return {false, SegReason::CoRR, -1};
    if (inadequate >= 0)
        return {false, SegReason::UnderScopedFence, inadequate};
    return {false, SegReason::MissingFence, -1};
}

std::vector<ThreadSummary>
summarise(const litmus::Test &test)
{
    std::vector<ThreadSummary> out;
    out.reserve(test.program.threads.size());
    for (int t = 0; t < test.program.numThreads(); ++t)
        out.emplace_back(test, t);
    return out;
}

} // namespace gpulitmus::analysis
