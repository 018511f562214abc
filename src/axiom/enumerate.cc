#include "axiom/enumerate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/log.h"

namespace gpulitmus::axiom {

namespace {

using litmus::Test;

/** A register value with the set of local load events it derives
 * from (taint, for dependency computation). */
struct TaintedVal
{
    int64_t v = 0;
    std::set<int> taint; ///< local event indices of source loads
};

/** One thread-local event produced by symbolic execution. */
struct LocalEvent
{
    Event::Kind kind = Event::Kind::Read;
    std::string loc;
    int64_t value = 0;
    ptx::Scope fenceScope = ptx::Scope::Cta;
    ptx::CacheOp cacheOp = ptx::CacheOp::None;
    bool isVolatile = false;
    bool isAtomic = false;
    int rmwPartner = -1; ///< local index
    int instrIdx = -1;
    std::set<int> addrDeps; ///< local load indices
    std::set<int> dataDeps;
    std::set<int> ctrlDeps;
};

/** A complete symbolic execution of one thread. */
struct ThreadTrace
{
    std::vector<LocalEvent> events;
    std::map<std::string, int64_t> finalRegs;
};

using ValueSets = std::map<std::string, std::set<int64_t>>;

/**
 * Symbolic executor for one thread. Enumerates all traces via DFS
 * over load-value choices.
 */
class ThreadExplorer
{
  public:
    ThreadExplorer(const Test &test, int tid, const ValueSets &values,
                   const EnumeratorOptions &opts)
        : test_(test), prog_(test.program.threads[tid]), tid_(tid),
          values_(values), opts_(opts)
    {
    }

    /** Run; collected traces end up in traces, store values (for the
     * fixpoint pre-pass) in storeValues. */
    void
    run(std::vector<ThreadTrace> *traces, ValueSets *store_values)
    {
        traces_ = traces;
        storeValues_ = store_values;
        State st;
        for (const auto &ri : test_.regInits) {
            if (ri.tid != tid_)
                continue;
            int64_t v = ri.isLocAddress ? test_.addressOf(ri.loc)
                                        : ri.value;
            st.regs[ri.reg] = TaintedVal{v, {}};
        }
        explore(st);
    }

  private:
    struct State
    {
        int pc = 0;
        int steps = 0;
        std::map<std::string, TaintedVal> regs;
        std::set<int> ctrlTaint;
        std::vector<LocalEvent> events;
    };

    TaintedVal
    eval(const State &st, const ptx::Operand &op) const
    {
        switch (op.kind) {
          case ptx::Operand::Kind::Imm:
            return TaintedVal{op.imm, {}};
          case ptx::Operand::Kind::Reg: {
            auto it = st.regs.find(op.reg);
            return it == st.regs.end() ? TaintedVal{} : it->second;
          }
          case ptx::Operand::Kind::Sym:
            return TaintedVal{test_.addressOf(op.sym), {}};
          case ptx::Operand::Kind::None:
            break;
        }
        panic("evaluating empty operand");
    }

    /** Location named by a memory operand; nullopt if the address is
     * not a testing location. */
    std::optional<std::string>
    locOf(const State &st, const ptx::Operand &op, TaintedVal *addr_val)
    {
        TaintedVal a = eval(st, op);
        if (addr_val)
            *addr_val = a;
        return test_.locationAt(a.v);
    }

    std::set<int64_t>
    candidateValues(const std::string &loc) const
    {
        auto it = values_.find(loc);
        std::set<int64_t> vals =
            it == values_.end() ? std::set<int64_t>{} : it->second;
        const auto *def = test_.findLocation(loc);
        if (def)
            vals.insert(def->init);
        return vals;
    }

    void
    recordStore(const std::string &loc, int64_t v)
    {
        if (storeValues_)
            (*storeValues_)[loc].insert(v);
    }

    void
    emitTrace(const State &st)
    {
        if (!traces_)
            return;
        ThreadTrace t;
        t.events = st.events;
        for (const auto &[name, tv] : st.regs)
            t.finalRegs[name] = tv.v;
        traces_->push_back(std::move(t));
    }

    /** Append a memory/fence event, wiring dependency edges. */
    int
    pushEvent(State &st, LocalEvent ev, const std::set<int> &addr_deps,
              const std::set<int> &data_deps,
              const std::set<int> &extra_ctrl)
    {
        ev.addrDeps = addr_deps;
        ev.dataDeps = data_deps;
        ev.ctrlDeps = st.ctrlTaint;
        ev.ctrlDeps.insert(extra_ctrl.begin(), extra_ctrl.end());
        st.events.push_back(std::move(ev));
        return static_cast<int>(st.events.size()) - 1;
    }

    void
    explore(State st)
    {
        for (;;) {
            if (st.pc >= static_cast<int>(prog_.instrs.size())) {
                emitTrace(st);
                return;
            }
            if (++st.steps > opts_.maxStepsPerThread) {
                warn("thread %d of test '%s' exceeded the step budget;"
                     " dropping the path",
                     tid_, test_.name.c_str());
                return;
            }

            const ptx::Instruction &instr = prog_.instrs[st.pc];

            // Resolve the guard.
            std::set<int> guard_taint;
            bool execute = true;
            if (instr.hasGuard) {
                auto it = st.regs.find(instr.guardReg);
                TaintedVal g =
                    it == st.regs.end() ? TaintedVal{} : it->second;
                guard_taint = g.taint;
                bool set = g.v != 0;
                execute = instr.guardNegated ? !set : set;
            }

            if (!execute) {
                if (instr.op == ptx::Opcode::Bra) {
                    // An untaken conditional branch still taints
                    // subsequent control flow.
                    st.ctrlTaint.insert(guard_taint.begin(),
                                        guard_taint.end());
                }
                ++st.pc;
                continue;
            }

            switch (instr.op) {
              case ptx::Opcode::Nop:
                ++st.pc;
                break;

              case ptx::Opcode::Bra:
                st.ctrlTaint.insert(guard_taint.begin(),
                                    guard_taint.end());
                st.pc = prog_.labelTarget(instr.target);
                break;

              case ptx::Opcode::Membar: {
                LocalEvent ev;
                ev.kind = Event::Kind::Fence;
                ev.fenceScope = instr.scope;
                ev.instrIdx = st.pc;
                pushEvent(st, ev, {}, {}, guard_taint);
                ++st.pc;
                break;
              }

              case ptx::Opcode::Mov:
              case ptx::Opcode::Cvt: {
                st.regs[instr.dst] = eval(st, instr.srcs[0]);
                ++st.pc;
                break;
              }

              case ptx::Opcode::Add:
              case ptx::Opcode::Sub:
              case ptx::Opcode::And:
              case ptx::Opcode::Or:
              case ptx::Opcode::Xor:
              case ptx::Opcode::SetpEq:
              case ptx::Opcode::SetpNe: {
                TaintedVal a = eval(st, instr.srcs[0]);
                TaintedVal b = eval(st, instr.srcs[1]);
                TaintedVal r;
                r.v = ptx::aluResult(instr.op, a.v, b.v);
                r.taint = a.taint;
                r.taint.insert(b.taint.begin(), b.taint.end());
                st.regs[instr.dst] = std::move(r);
                ++st.pc;
                break;
              }

              case ptx::Opcode::Ld: {
                TaintedVal addr;
                auto loc = locOf(st, instr.addr, &addr);
                if (!loc) {
                    warn("test '%s': T%d load from non-testing address"
                         " %lld; dropping path",
                         test_.name.c_str(), tid_,
                         static_cast<long long>(addr.v));
                    return;
                }
                for (int64_t v : candidateValues(*loc)) {
                    State next = st;
                    LocalEvent ev;
                    ev.kind = Event::Kind::Read;
                    ev.loc = *loc;
                    ev.value = v;
                    ev.cacheOp = instr.cacheOp;
                    ev.isVolatile = instr.isVolatile;
                    ev.instrIdx = st.pc;
                    int idx = pushEvent(next, ev, addr.taint, {},
                                        guard_taint);
                    next.regs[instr.dst] = TaintedVal{v, {idx}};
                    ++next.pc;
                    explore(std::move(next));
                }
                return; // all continuations handled recursively
              }

              case ptx::Opcode::St: {
                TaintedVal addr;
                auto loc = locOf(st, instr.addr, &addr);
                if (!loc) {
                    warn("test '%s': T%d store to non-testing address"
                         " %lld; dropping path",
                         test_.name.c_str(), tid_,
                         static_cast<long long>(addr.v));
                    return;
                }
                TaintedVal val = eval(st, instr.srcs[0]);
                recordStore(*loc, val.v);
                LocalEvent ev;
                ev.kind = Event::Kind::Write;
                ev.loc = *loc;
                ev.value = val.v;
                ev.cacheOp = instr.cacheOp;
                ev.isVolatile = instr.isVolatile;
                ev.instrIdx = st.pc;
                pushEvent(st, ev, addr.taint, val.taint, guard_taint);
                ++st.pc;
                break;
              }

              case ptx::Opcode::AtomCas:
              case ptx::Opcode::AtomExch:
              case ptx::Opcode::AtomInc:
              case ptx::Opcode::AtomAdd: {
                TaintedVal addr;
                auto loc = locOf(st, instr.addr, &addr);
                if (!loc) {
                    warn("test '%s': T%d atomic on non-testing address;"
                         " dropping path",
                         test_.name.c_str(), tid_);
                    return;
                }
                // Source operands: cmp and swap for atom.cas, the
                // operand for atom.exch and atom.add, none for
                // atom.inc. The written value depends on them, and on
                // the read for atom.inc and atom.add.
                TaintedVal src0, src1;
                if (instr.srcs.size() > 0)
                    src0 = eval(st, instr.srcs[0]);
                if (instr.srcs.size() > 1)
                    src1 = eval(st, instr.srcs[1]);
                bool reads_old = instr.op == ptx::Opcode::AtomInc ||
                                 instr.op == ptx::Opcode::AtomAdd;
                for (int64_t old : candidateValues(*loc)) {
                    State next = st;
                    LocalEvent rd;
                    rd.kind = Event::Kind::Read;
                    rd.loc = *loc;
                    rd.value = old;
                    rd.isAtomic = true;
                    rd.instrIdx = st.pc;
                    int ridx = pushEvent(next, rd, addr.taint, {},
                                         guard_taint);

                    if (auto new_val = ptx::atomicWrite(
                            instr.op, old, src0.v, src1.v)) {
                        std::set<int> data_deps = src0.taint;
                        data_deps.insert(src1.taint.begin(),
                                         src1.taint.end());
                        if (reads_old)
                            data_deps.insert(ridx);
                        recordStore(*loc, *new_val);
                        LocalEvent wr;
                        wr.kind = Event::Kind::Write;
                        wr.loc = *loc;
                        wr.value = *new_val;
                        wr.isAtomic = true;
                        wr.rmwPartner = ridx;
                        wr.instrIdx = st.pc;
                        int widx = pushEvent(next, wr, addr.taint,
                                             data_deps, guard_taint);
                        next.events[ridx].rmwPartner = widx;
                    }
                    if (!instr.dst.empty())
                        next.regs[instr.dst] = TaintedVal{old, {ridx}};
                    ++next.pc;
                    explore(std::move(next));
                }
                return;
              }
            }
        }
    }

    const Test &test_;
    const ptx::ThreadProgram &prog_;
    int tid_;
    const ValueSets &values_;
    const EnumeratorOptions &opts_;
    std::vector<ThreadTrace> *traces_ = nullptr;
    ValueSets *storeValues_ = nullptr;
};

/** Fixpoint over possible store values per location. */
ValueSets
computeValueSets(const Test &test, const EnumeratorOptions &opts)
{
    ValueSets values;
    for (const auto &l : test.locations)
        values[l.name].insert(l.init);

    for (int round = 0; round < 8; ++round) {
        ValueSets fresh;
        for (int t = 0; t < test.program.numThreads(); ++t) {
            ThreadExplorer ex(test, t, values, opts);
            ex.run(nullptr, &fresh);
        }
        bool changed = false;
        for (const auto &[loc, vals] : fresh) {
            for (int64_t v : vals) {
                if (static_cast<int>(values[loc].size()) >=
                    opts.maxValuesPerLoc)
                    break;
                changed |= values[loc].insert(v).second;
            }
        }
        if (!changed)
            break;
    }
    return values;
}

} // anonymous namespace

std::vector<Execution>
enumerateExecutions(const litmus::Test &test,
                    const EnumeratorOptions &opts)
{
    ValueSets values = computeValueSets(test, opts);

    int nthreads = test.program.numThreads();
    std::vector<std::vector<ThreadTrace>> traces(nthreads);
    for (int t = 0; t < nthreads; ++t) {
        ThreadExplorer ex(test, t, values, opts);
        ex.run(&traces[t], nullptr);
        if (traces[t].empty()) {
            warn("test '%s': T%d has no complete trace",
                 test.name.c_str(), t);
            return {};
        }
    }

    std::vector<Execution> out;
    uint64_t candidates = 0;

    // Iterate over the cartesian product of per-thread traces.
    std::vector<size_t> pick(nthreads, 0);
    for (;;) {
        // ---- Build the combined event list. -------------------------
        std::vector<Event> events;
        // Init writes first.
        std::map<std::string, int> init_writes;
        for (const auto &l : test.locations) {
            Event e;
            e.id = static_cast<int>(events.size());
            e.tid = -1;
            e.kind = Event::Kind::Write;
            e.loc = l.name;
            e.value = l.init;
            init_writes[l.name] = e.id;
            events.push_back(std::move(e));
        }

        std::vector<std::vector<int>> global_id(nthreads);
        bool too_big = false;
        for (int t = 0; t < nthreads && !too_big; ++t) {
            const ThreadTrace &tr = traces[t][pick[t]];
            for (size_t k = 0; k < tr.events.size(); ++k) {
                if (events.size() >= kMaxEvents) {
                    too_big = true;
                    break;
                }
                const LocalEvent &le = tr.events[k];
                Event e;
                e.id = static_cast<int>(events.size());
                e.tid = t;
                e.poIndex = static_cast<int>(k);
                e.kind = le.kind;
                e.loc = le.loc;
                e.value = le.value;
                e.fenceScope = le.fenceScope;
                e.cacheOp = le.cacheOp;
                e.isVolatile = le.isVolatile;
                e.isAtomic = le.isAtomic;
                e.instrIdx = le.instrIdx;
                global_id[t].push_back(e.id);
                events.push_back(std::move(e));
            }
        }
        if (too_big) {
            warn("test '%s': execution exceeds %d events; skipped",
                 test.name.c_str(), kMaxEvents);
            goto advance;
        }

        {
            int n = static_cast<int>(events.size());
            // Fix up rmw partners to global ids.
            for (int t = 0; t < nthreads; ++t) {
                const ThreadTrace &tr = traces[t][pick[t]];
                for (size_t k = 0; k < tr.events.size(); ++k) {
                    if (tr.events[k].rmwPartner >= 0) {
                        events[global_id[t][k]].rmwPartner =
                            global_id[t][tr.events[k].rmwPartner];
                    }
                }
            }

            Execution base;
            base.events = events;
            base.po = Relation(n);
            base.addr = Relation(n);
            base.data = Relation(n);
            base.ctrl = Relation(n);
            base.membarCta = Relation(n);
            base.membarGl = Relation(n);
            base.membarSys = Relation(n);

            for (int t = 0; t < nthreads; ++t) {
                const ThreadTrace &tr = traces[t][pick[t]];
                const auto &ids = global_id[t];
                for (size_t i = 0; i < ids.size(); ++i) {
                    for (size_t j = i + 1; j < ids.size(); ++j)
                        base.po.set(ids[i], ids[j]);
                    const LocalEvent &le = tr.events[i];
                    for (int d : le.addrDeps)
                        base.addr.set(ids[d], ids[i]);
                    for (int d : le.dataDeps)
                        base.data.set(ids[d], ids[i]);
                    for (int d : le.ctrlDeps)
                        base.ctrl.set(ids[d], ids[i]);
                }
                // Fence relations: exact-scope pairs around each
                // fence event.
                for (size_t f = 0; f < ids.size(); ++f) {
                    const Event &fe = events[ids[f]];
                    if (!fe.isFence())
                        continue;
                    Relation *rel = nullptr;
                    switch (fe.fenceScope) {
                      case ptx::Scope::Cta:
                        rel = &base.membarCta;
                        break;
                      case ptx::Scope::Gl:
                        rel = &base.membarGl;
                        break;
                      case ptx::Scope::Sys:
                        rel = &base.membarSys;
                        break;
                    }
                    for (size_t i = 0; i < f; ++i) {
                        for (size_t j = f + 1; j < ids.size(); ++j) {
                            if (!events[ids[i]].isFence() &&
                                !events[ids[j]].isFence())
                                rel->set(ids[i], ids[j]);
                        }
                    }
                }
            }

            // Scope relations. Init writes participate everywhere;
            // they have no incoming edges elsewhere so they cannot
            // complete a cycle.
            base.scopeCta = Relation(n);
            base.scopeGl = Relation(n);
            base.scopeSys = Relation(n);
            for (int i = 0; i < n; ++i) {
                for (int j = 0; j < n; ++j) {
                    if (i == j)
                        continue;
                    base.scopeSys.set(i, j);
                    base.scopeGl.set(i, j); // single grid, single GPU
                    const Event &a = events[i];
                    const Event &b = events[j];
                    bool same_cta =
                        a.isInit() || b.isInit() ||
                        test.scopeTree.sameCta(a.tid, b.tid);
                    if (same_cta)
                        base.scopeCta.set(i, j);
                }
            }

            // ---- Enumerate coherence orders per location. -----------
            std::map<std::string, std::vector<int>> writes_of;
            for (const auto &e : events) {
                if (e.isWrite() && !e.isInit())
                    writes_of[e.loc].push_back(e.id);
            }

            // All per-location permutations, combined recursively.
            std::vector<std::string> locs;
            for (const auto &[loc, ws] : writes_of)
                locs.push_back(loc);

            std::function<void(size_t, Relation)> co_rec =
                [&](size_t li, Relation co) {
                    if (li == locs.size()) {
                        // ---- Enumerate rf. --------------------------
                        std::vector<int> reads;
                        for (const auto &e : events) {
                            if (e.isRead())
                                reads.push_back(e.id);
                        }
                        std::vector<std::vector<int>> sources(
                            reads.size());
                        for (size_t r = 0; r < reads.size(); ++r) {
                            const Event &re = events[reads[r]];
                            for (const auto &w : events) {
                                if (w.isWrite() && w.loc == re.loc &&
                                    w.value == re.value)
                                    sources[r].push_back(w.id);
                            }
                            if (sources[r].empty())
                                return; // infeasible combination
                        }
                        std::function<void(size_t, Relation)> rf_rec =
                            [&](size_t ri, Relation rf) {
                                if (candidates >= opts.maxCandidates)
                                    return;
                                if (ri == reads.size()) {
                                    Execution ex = base;
                                    ex.co = co;
                                    ex.rf = rf;
                                    if (!ex.rmwAtomic())
                                        return;
                                    // Final state.
                                    for (int t = 0; t < nthreads;
                                         ++t) {
                                        const ThreadTrace &tr =
                                            traces[t][pick[t]];
                                        for (const auto &[reg, v] :
                                             tr.finalRegs)
                                            ex.finalState
                                                .regs[{t, reg}] = v;
                                    }
                                    for (const auto &[loc, ws] :
                                         writes_of) {
                                        int last =
                                            init_writes.at(loc);
                                        for (int w : ws) {
                                            bool is_last = true;
                                            for (int w2 : ws) {
                                                if (w2 != w &&
                                                    co.get(w, w2))
                                                    is_last = false;
                                            }
                                            if (is_last)
                                                last = w;
                                        }
                                        ex.finalState.mem[loc] =
                                            events[last].value;
                                    }
                                    for (const auto &l :
                                         test.locations) {
                                        if (!ex.finalState.mem.count(
                                                l.name))
                                            ex.finalState
                                                .mem[l.name] = l.init;
                                    }
                                    ++candidates;
                                    out.push_back(std::move(ex));
                                    return;
                                }
                                for (int w : sources[ri]) {
                                    Relation rf2 = rf;
                                    rf2.set(w, reads[ri]);
                                    rf_rec(ri + 1, rf2);
                                }
                            };
                        rf_rec(0, Relation(
                                      static_cast<int>(events.size())));
                        return;
                    }
                    // Permute this location's writes.
                    std::vector<int> ws = writes_of[locs[li]];
                    std::sort(ws.begin(), ws.end());
                    do {
                        Relation co2 = co;
                        int init_id = init_writes.at(locs[li]);
                        int prev = init_id;
                        for (int w : ws) {
                            co2.set(prev, w);
                            prev = w;
                        }
                        // Transitive edges within the location chain.
                        for (size_t i = 0; i < ws.size(); ++i) {
                            co2.set(init_id, ws[i]);
                            for (size_t j = i + 1; j < ws.size(); ++j)
                                co2.set(ws[i], ws[j]);
                        }
                        co_rec(li + 1, co2);
                    } while (
                        std::next_permutation(ws.begin(), ws.end()));
                };
            co_rec(0, Relation(static_cast<int>(events.size())));
        }

      advance:
        // Advance the cartesian-product counter.
        int t = 0;
        for (; t < nthreads; ++t) {
            if (++pick[t] < traces[t].size())
                break;
            pick[t] = 0;
        }
        if (t == nthreads)
            break;
        if (candidates >= opts.maxCandidates) {
            warn("test '%s': candidate cap (%llu) reached",
                 test.name.c_str(),
                 static_cast<unsigned long long>(opts.maxCandidates));
            break;
        }
    }
    return out;
}

} // namespace gpulitmus::axiom
