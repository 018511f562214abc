#include "analysis/sc.h"

#include <cstring>
#include <unordered_map>
#include <vector>

#include "analysis/race.h"
#include "common/log.h"
#include "common/memo.h"
#include "litmus/outcome.h"
#include "obs/metrics.h"

namespace gpulitmus::analysis {

namespace {

/** One operand, registers resolved to dense indices. */
struct COp
{
    bool isImm = true;
    int64_t imm = 0;
    int reg = -1;
};

struct CInstr
{
    ptx::Opcode op = ptx::Opcode::Nop;
    int dst = -1;
    int guard = -1;
    bool guardNeg = false;
    COp addr, src0, src1;
    int braTarget = -1;
};

/**
 * Flat interpreter state: thread pcs, registers, L2 (global) memory
 * and one shared-memory copy per CTA — exactly the observable state
 * of sim::Machine with all caches, buffers and windows empty, which
 * is what every state of a fully-ordered program collapses to.
 */
struct State
{
    std::vector<int> pcs;
    std::vector<std::vector<int64_t>> regs; // per thread
    std::vector<int64_t> l2;
    std::vector<std::vector<int64_t>> shared; // per CTA

    std::string key() const
    {
        std::string k;
        auto put64 = [&k](int64_t v) {
            char b[8];
            std::memcpy(b, &v, 8);
            k.append(b, 8);
        };
        for (size_t t = 0; t < pcs.size(); ++t) {
            put64(pcs[t]);
            for (int64_t r : regs[t])
                put64(r);
        }
        for (int64_t v : l2)
            put64(v);
        for (const auto &mem : shared)
            for (int64_t v : mem)
                put64(v);
        return k;
    }
};

class Interp
{
  public:
    explicit Interp(const litmus::Test &test) : test_(test)
    {
        int nthreads = test.program.numThreads();
        int nlocs = static_cast<int>(test.locations.size());
        locShared_.resize(nlocs);
        locAddr_.reserve(nlocs);
        for (int i = 0; i < nlocs; ++i) {
            locShared_[i] = test.locations[i].space ==
                            litmus::MemSpace::Shared;
            locAddr_[test.addressOf(test.locations[i].name)] = i;
        }
        regNames_.resize(nthreads);
        ctas_.resize(nthreads);
        threads_.resize(nthreads);
        for (int t = 0; t < nthreads; ++t) {
            ctas_[t] = test.scopeTree.placement(t).cta;
            auto regIdx = [&](const std::string &name) {
                auto &names = regNames_[t];
                for (size_t i = 0; i < names.size(); ++i) {
                    if (names[i] == name)
                        return static_cast<int>(i);
                }
                names.push_back(name);
                return static_cast<int>(names.size() - 1);
            };
            const auto &prog = test.program.threads[t];
            for (const auto &in : prog.instrs) {
                CInstr c;
                c.op = in.op;
                if (!in.dst.empty())
                    c.dst = regIdx(in.dst);
                if (in.hasGuard) {
                    c.guard = regIdx(in.guardReg);
                    c.guardNeg = in.guardNegated;
                }
                auto cop = [&](const ptx::Operand &op) {
                    COp o;
                    if (op.isImm()) {
                        o.imm = op.imm;
                    } else if (op.isSym()) {
                        o.imm = test.addressOf(op.sym);
                    } else if (op.isReg()) {
                        o.isImm = false;
                        o.reg = regIdx(op.reg);
                    }
                    return o;
                };
                if (!in.addr.isNone())
                    c.addr = cop(in.addr);
                if (!in.srcs.empty())
                    c.src0 = cop(in.srcs[0]);
                if (in.srcs.size() > 1)
                    c.src1 = cop(in.srcs[1]);
                if (in.op == ptx::Opcode::Bra)
                    c.braTarget = prog.labelTarget(in.target);
                threads_[t].push_back(c);
            }
            // Registers only mentioned in init entries still exist.
            for (const auto &ri : test.regInits) {
                if (ri.tid == t)
                    regIdx(ri.reg);
            }
        }
    }

    State initial() const
    {
        State s;
        int nthreads = static_cast<int>(threads_.size());
        s.pcs.assign(nthreads, 0);
        s.regs.resize(nthreads);
        for (int t = 0; t < nthreads; ++t)
            s.regs[t].assign(regNames_[t].size(), 0);
        for (const auto &ri : test_.regInits) {
            int64_t v = ri.isLocAddress ? test_.addressOf(ri.loc)
                                        : ri.value;
            const auto &names = regNames_[ri.tid];
            for (size_t i = 0; i < names.size(); ++i) {
                if (names[i] == ri.reg)
                    s.regs[ri.tid][i] = v;
            }
        }
        for (const auto &loc : test_.locations)
            s.l2.push_back(loc.init);
        s.shared.assign(test_.scopeTree.numCtas(), s.l2);
        return s;
    }

    bool done(const State &s, int t) const
    {
        return s.pcs[t] >=
               static_cast<int>(threads_[t].size());
    }

    bool allDone(const State &s) const
    {
        for (size_t t = 0; t < threads_.size(); ++t) {
            if (!done(s, static_cast<int>(t)))
                return false;
        }
        return true;
    }

    /** Execute one instruction of thread t, atomically. */
    void step(State &s, int t) const
    {
        const CInstr &in = threads_[t][s.pcs[t]];
        auto &regs = s.regs[t];
        auto val = [&](const COp &o) {
            return o.isImm ? o.imm : regs[o.reg];
        };
        if (in.guard >= 0) {
            bool set = regs[in.guard] != 0;
            if (in.guardNeg ? set : !set) {
                ++s.pcs[t];
                return;
            }
        }
        auto cell = [&](int64_t addr) -> int64_t * {
            auto it = locAddr_.find(addr);
            if (it == locAddr_.end())
                return nullptr; // non-testing address: nop
            int loc = it->second;
            if (locShared_[loc])
                return &s.shared[ctas_[t]][loc];
            return &s.l2[loc];
        };
        switch (in.op) {
          case ptx::Opcode::Nop:
          case ptx::Opcode::Membar:
            break;
          case ptx::Opcode::Bra:
            s.pcs[t] = in.braTarget;
            return;
          case ptx::Opcode::Mov:
          case ptx::Opcode::Cvt:
            regs[in.dst] = val(in.src0);
            break;
          case ptx::Opcode::Add:
          case ptx::Opcode::Sub:
          case ptx::Opcode::And:
          case ptx::Opcode::Or:
          case ptx::Opcode::Xor:
          case ptx::Opcode::SetpEq:
          case ptx::Opcode::SetpNe:
            regs[in.dst] =
                ptx::aluResult(in.op, val(in.src0), val(in.src1));
            break;
          case ptx::Opcode::Ld: {
            if (int64_t *c = cell(val(in.addr)))
                regs[in.dst] = *c;
            break;
          }
          case ptx::Opcode::St: {
            if (int64_t *c = cell(val(in.addr)))
                *c = val(in.src0);
            break;
          }
          case ptx::Opcode::AtomCas:
          case ptx::Opcode::AtomExch:
          case ptx::Opcode::AtomInc:
          case ptx::Opcode::AtomAdd: {
            int64_t *c = cell(val(in.addr));
            if (!c) {
                if (in.dst >= 0)
                    regs[in.dst] = 0;
                break;
            }
            int64_t old = *c;
            if (auto w = ptx::atomicWrite(in.op, old, val(in.src0),
                                          val(in.src1)))
                *c = *w;
            if (in.dst >= 0)
                regs[in.dst] = old;
            break;
          }
        }
        ++s.pcs[t];
    }

    litmus::FinalState finalState(const State &s) const
    {
        litmus::FinalState st;
        for (size_t t = 0; t < regNames_.size(); ++t) {
            const auto &names = regNames_[t];
            for (size_t r = 0; r < names.size(); ++r)
                st.regs[{static_cast<int>(t), names[r]}] =
                    s.regs[t][r];
        }
        for (size_t i = 0; i < test_.locations.size(); ++i) {
            const std::string &name = test_.locations[i].name;
            // Shared locations report CTA 0's copy, exactly as
            // sim::Machine::collectFinalState does.
            st.mem[name] = locShared_[i]
                               ? s.shared[0][i]
                               : s.l2[i];
        }
        return st;
    }

    int numThreads() const
    {
        return static_cast<int>(threads_.size());
    }

  private:
    const litmus::Test &test_;
    std::vector<std::vector<CInstr>> threads_;
    std::vector<std::vector<std::string>> regNames_;
    std::vector<int> ctas_;
    std::vector<uint8_t> locShared_;
    std::unordered_map<int64_t, int> locAddr_;
};

} // anonymous namespace

std::optional<ScResult>
enumerateSc(const litmus::Test &test, ScOptions opts)
{
    Interp interp(test);
    litmus::Histogram keyer(test);
    ScResult res;
    res.complete = true;

    // Iterative DFS with gray/black colouring: a gray hit is a back
    // edge, i.e. a schedule that revisits a state and so need never
    // terminate (a spin loop). Terminal states are collected either
    // way; `complete` records whether any such loop exists.
    enum : uint8_t { kGray = 1, kBlack = 2 };
    std::unordered_map<std::string, uint8_t> color;
    struct Frame
    {
        State state;
        std::string key;
        int nextThread = 0;
    };
    std::vector<Frame> stack;
    State init = interp.initial();
    std::string ik = init.key();
    color[ik] = kGray;
    stack.push_back({std::move(init), std::move(ik), 0});

    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.nextThread == 0 && interp.allDone(f.state)) {
            litmus::FinalState fs = interp.finalState(f.state);
            std::string key = keyer.keyFor(fs);
            res.finals[key] += 1;
            if (test.condition.eval(fs))
                res.satisfying.insert(key);
            color[f.key] = kBlack;
            stack.pop_back();
            continue;
        }
        int t = f.nextThread++;
        if (t >= interp.numThreads()) {
            color[f.key] = kBlack;
            stack.pop_back();
            continue;
        }
        if (interp.done(f.state, t))
            continue;
        State next = f.state;
        interp.step(next, t);
        std::string nk = next.key();
        auto it = color.find(nk);
        if (it != color.end()) {
            if (it->second == kGray)
                res.complete = false; // revisitable: spin loop
            continue;
        }
        if (color.size() >= opts.maxStates)
            return std::nullopt; // budget: caller must explore
        color[nk] = kGray;
        stack.push_back({std::move(next), std::move(nk), 0});
    }
    res.states = color.size();
    return res;
}

namespace {

OnceMemo<Prepass> &
prepassCache()
{
    static OnceMemo<Prepass> cache(kPrepassMemoCapacity);
    return cache;
}

} // namespace

std::shared_ptr<const Prepass>
prepass(const litmus::Test &test)
{
    static obs::Counter &calls = obs::counter("analysis_prepass_total");
    static obs::Counter &hits =
        obs::counter("analysis_prepass_memo_hits_total");
    bool hit = false;
    auto result = prepassCache().get(
        test.programText(),
        [&] {
            Prepass p;
            p.fullyOrdered = analyze(test).fullyOrdered;
            if (p.fullyOrdered)
                p.sc = enumerateSc(test);
            return p;
        },
        &hit);
    calls.add();
    if (hit)
        hits.add();
    return result;
}

size_t
prepassCacheSize()
{
    return prepassCache().size();
}

void
clearPrepassCache()
{
    prepassCache().clear();
}

} // namespace gpulitmus::analysis
