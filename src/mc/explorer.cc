#include "mc/explorer.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/log.h"
#include "mc/memo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/outcomes.h"

namespace gpulitmus::mc {

namespace {

/**
 * Outcome-key weights, indexed by outcome-table id (sim/outcomes.h).
 * The search folds reachability counts up the spine on every cut and
 * pop; keeping them as flat integer vectors (the table owns the one
 * copy of each outcome string) makes that folding allocation-free
 * arithmetic instead of string-keyed map merges. Ids are dense and
 * few (a litmus test has a handful of distinct outcomes), so the
 * vectors stay tiny.
 */
using Weights = std::vector<uint64_t>;

void
foldWeights(Weights &dst, const Weights &src)
{
    if (dst.size() < src.size())
        dst.resize(src.size(), 0);
    for (size_t i = 0; i < src.size(); ++i)
        dst[i] += src[i];
}

void
bumpWeight(Weights &dst, uint32_t id)
{
    if (dst.size() <= id)
        dst.resize(id + 1, 0);
    ++dst[id];
}

/** One materialised node of the choice tree (a position in the
 * current DFS trace). Node slots are pooled: the trace vector never
 * shrinks, popped slots are reset and reused, so the per-replay push/
 * pop churn allocates nothing once the containers are warm. */
struct Node
{
    sim::ChoiceKind kind = sim::ChoiceKind::Schedule;
    uint32_t arity = 0;
    uint32_t chosen = 0;
    /** Alternatives not yet explored, in exploration order. */
    std::vector<uint32_t> pending;

    bool isSchedule = false;
    /** State-cache key; valid when hasKey (caching on). `key` is the
     * (state, sleep) digest — or, in debug mode, `stringKey` is the
     * full encoding and `key` is unused. */
    bool hasKey = false;
    Digest128 key;
    std::string stringKey;
    /** Machine checkpoint at this schedule point; valid when
     * hasSnap (checkpointing on). */
    bool hasSnap = false;
    sim::Machine::Snapshot snap;
    /** Sleeping actor ids at node entry (indexed by actor id). */
    std::vector<uint8_t> sleepIn;
    /** Actor table snapshot (schedule nodes only). */
    std::vector<sim::ActorOption> actors;
    /** Actor ids of alternatives already fully explored here. */
    std::vector<int> doneIds;

    /** Reachable finals accumulated across this node's subtree. */
    Weights finals;
    /** Shallowest trace depth a grey cut in this subtree escaped to
     * (SIZE_MAX: none) — the Tarjan-style completeness watermark. */
    size_t taint = SIZE_MAX;

    void
    reset(sim::ChoiceKind k, uint32_t n)
    {
        kind = k;
        arity = n;
        chosen = 0;
        pending.clear();
        isSchedule = false;
        hasKey = false;
        stringKey.clear();
        hasSnap = false;
        sleepIn.clear();
        actors.clear();
        doneIds.clear();
        finals.clear();
        taint = SIZE_MAX;
    }
};

// ---------------------------------------------------------------------
// Walker: the DFS traversal context, doubling as the machine's choice
// provider.
// ---------------------------------------------------------------------

struct Walker final : sim::ChoiceProvider
{
    const ExploreOptions *opts;
    sim::Machine machine;
    /** Leaf outcomes -> dense ids, memoised by final-state digest:
     * repeat outcomes (the overwhelming majority of leaves) skip the
     * final-state materialisation, key rendering and condition
     * evaluation entirely. */
    sim::OutcomeTable outcomes;

    /** Pooled node slots; the live DFS spine is trace[0..traceLen). */
    std::vector<Node> trace;
    size_t traceLen = 0;
    Weights rootFinals;
    /** The state memo. Digest-keyed on the fast path; string-keyed
     * (the PR-3 scheme, kept for cross-checking) in debug mode. Only
     * the table matching opts->debugStateKeys is ever populated. */
    StateMemo memo;
    std::unordered_map<std::string, VisitEntry> visitedStr;
    /** Finals of black states, one appendFinals() span per entry at
     * the entry's finalsAt(). Black entries are never erased, so the
     * arena only grows. */
    std::vector<uint64_t> finalsArena;
    ExploreStats stats;

    /** Pending cut, set by pickActor when it aborts a replay whose
     * continuation is memoised (exception-free: the machine returns
     * out of the run on the kAbortRun sentinel). `cutFinals` is the
     * black entry's arena offset (SIZE_MAX: none), consumed
     * immediately after the run returns. */
    bool cutPending = false;
    size_t cutFinals = SIZE_MAX;
    size_t cutTaint = SIZE_MAX;

    size_t depth = 0; ///< next choice index within the current replay
    size_t nIds = 0;  ///< actor-id space: threads + SM drain actors
    std::vector<uint8_t> curSleep;
    std::string scratch;            ///< debug-mode string encoding
    std::vector<uint32_t> candsScratch;
    std::vector<uint8_t> sleepScratch;
    /** A state cut merged states at different fetch counts (a spin
     * loop): "exact" demotes to "exact for terminating executions"
     * (ExploreResult::fairComplete). */
    bool loopDedup = false;
    /** A replay actually ran into the runaway guard and recorded a
     * truncated final state: even the fair-schedule claim is gone. */
    bool truncatedLeaf = false;
    /** A budget tripped: the search is incomplete (bounded). */
    bool aborted = false;
    /** Register-hazard IssueOrCommit nodes under eager issue. */
    uint64_t issueBranches = 0;

    Walker(const sim::ChipProfile &chip, const litmus::Test &t,
           const ExploreOptions *o)
        : opts(o), machine(chip, t, o->machine), outcomes(t)
    {
        nIds = static_cast<size_t>(t.program.numThreads()) +
               static_cast<size_t>(chip.numSMs);
        curSleep.assign(nIds, 0);
    }

    Node &
    pushNode(sim::ChoiceKind kind, uint32_t arity)
    {
        if (traceLen == trace.size())
            trace.emplace_back();
        Node &node = trace[traceLen++];
        node.reset(kind, arity);
        stats.peakDepth = std::max(stats.peakDepth, traceLen);
        return node;
    }

    // ---- ChoiceProvider ---------------------------------------------

    /** The actor table only matters when the upcoming schedule point
     * materialises a fresh node; replayed prefixes use their stored
     * snapshot, so skip the build. */
    bool wantsActors() const override { return depth >= traceLen; }
    bool eagerIssue() const override { return opts->eagerIssue; }
    int delayBump() override { return 0; }

    uint64_t
    pick(sim::ChoiceKind kind, uint64_t n) override
    {
        // Timing-only / symmetric kinds are pinned: exhaustive
        // scheduling subsumes start skew, and CTA->SM placements are
        // interchangeable (homogeneous SMs, always distinct).
        if (kind == sim::ChoiceKind::Placement ||
            kind == sim::ChoiceKind::StartSkew)
            return 0;
        if (n <= 1)
            return 0;
        return takeSimple(kind, static_cast<uint32_t>(n));
    }

    bool
    chance(sim::ChoiceKind kind, double p, bool relevant) override
    {
        // Irrelevant choices cannot affect reachability; drain
        // laziness is "the scheduler did not pick the drain actor",
        // which the schedule choice already enumerates.
        if (!relevant || kind == sim::ChoiceKind::DrainLazy)
            return false;
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return takeSimple(kind, 2) != 0;
    }

    uint32_t
    takeSimple(sim::ChoiceKind kind, uint32_t arity)
    {
        size_t d = depth++;
        if (d < traceLen) {
            const Node &node = trace[d];
            if (node.kind != kind || node.isSchedule)
                panic("mc replay diverged at depth %zu: expected %s,"
                      " machine asked %s",
                      d, sim::toString(node.kind),
                      sim::toString(kind));
            ++stats.replayedChoices;
            return node.chosen;
        }
        ++stats.choicePoints;
        if (kind == sim::ChoiceKind::IssueOrCommit && opts->eagerIssue)
            ++issueBranches;
        Node &node = pushNode(kind, arity);
        node.pending.reserve(arity - 1);
        for (uint32_t v = 1; v < arity; ++v)
            node.pending.push_back(v);
        return 0;
    }

    /** Abandon the current replay: record the cut for explore() and
     * hand the machine the abort sentinel. */
    size_t
    cutRun(size_t finals_at, size_t taint_depth)
    {
        cutPending = true;
        cutFinals = finals_at;
        cutTaint = taint_depth;
        return sim::ChoiceProvider::kAbortRun;
    }

    size_t
    pickActor(const sim::ActorOption *actors, size_t n) override
    {
        size_t d = depth++;
        if (d < traceLen) {
            Node &node = trace[d];
            if (!node.isSchedule)
                panic("mc replay diverged at depth %zu: stored %s,"
                      " machine asked schedule",
                      d, sim::toString(node.kind));
            ++stats.replayedChoices;
            updateSleepAfter(node);
            return node.chosen;
        }
        ++stats.choicePoints;

        Digest128 key{};
        bool has_key = false;
        if (opts->stateCache) {
            // Sleep sets change which subtrees get explored, so
            // cache hits are only sound between points with the same
            // sleep discipline: the key covers the (state, sleep)
            // pair. Fast path: stream the state into a 128-bit
            // digest, no string materialised. Debug path: the full
            // string encoding, collision-free by construction. One
            // probe either finds the state or enters it grey.
            VisitEntry grey =
                VisitEntry::grey(d, machine.executedSignature());
            const VisitEntry *hit;
            if (opts->debugStateKeys) {
                scratch.clear();
                machine.encodeState(scratch);
                if (opts->sleepSets)
                    scratch.append(curSleep.begin(), curSleep.end());
                auto [it, fresh] = visitedStr.try_emplace(scratch, grey);
                hit = fresh ? nullptr : &it->second;
            } else {
                Hash128 h;
                machine.hashState(h);
                if (opts->sleepSets)
                    hashSleep(h);
                key = h.digest();
                auto [entry, fresh] = memo.emplace(key, grey);
                hit = fresh ? nullptr : entry;
            }
            if (hit) {
                ++stats.stateCuts;
                // Equal state, different fetch counters (a loop):
                // the continuations differ only in the runaway
                // guard's distance, so cut — the search terminates —
                // but the exactness claim is gone.
                if (hit->executedSig != grey.executedSig)
                    loopDedup = true;
                if (hit->black())
                    return cutRun(hit->finalsAt(), SIZE_MAX);
                return cutRun(SIZE_MAX, hit->greyDepth());
            }
            has_key = true;
        }

        candsScratch.clear();
        for (size_t i = 0; i < n; ++i) {
            if (!actors[i].enabled)
                continue;
            if (opts->sleepSets &&
                curSleep[static_cast<size_t>(actors[i].id)]) {
                ++stats.sleepSkips;
                continue;
            }
            candsScratch.push_back(static_cast<uint32_t>(i));
        }
        if (candsScratch.empty()) {
            // Every enabled actor is asleep: all continuations from
            // here are covered by the sibling subtrees that put them
            // to sleep.
            if (has_key) {
                if (opts->debugStateKeys)
                    visitedStr.erase(scratch);
                else
                    memo.erase(key);
            }
            return cutRun(SIZE_MAX, SIZE_MAX);
        }

        Node &node = pushNode(sim::ChoiceKind::Schedule,
                              static_cast<uint32_t>(n));
        node.isSchedule = true;
        node.actors.assign(actors, actors + n);
        node.sleepIn.assign(curSleep.begin(), curSleep.end());
        node.hasKey = has_key;
        node.key = key;
        if (has_key && opts->debugStateKeys)
            node.stringKey = scratch;
        node.chosen = candsScratch[0];
        node.pending.assign(candsScratch.begin() + 1,
                            candsScratch.end());
        if (opts->checkpoints && !node.pending.empty()) {
            // The machine is still at the top of this step (the pick
            // mutates nothing before returning), so the snapshot
            // resumes exactly here. Only branchy nodes checkpoint —
            // a singleton node can never be a divergence point, and
            // resuming from the nearest branchy ancestor replays the
            // few singleton steps in between. Slot pooling recycles
            // the snapshot's storage with the node.
            machine.snapshot(node.snap);
            node.hasSnap = true;
        }
        updateSleepAfter(node);
        return node.chosen;
    }

    // ---- sleep-set plumbing -----------------------------------------

    /** Absorb curSleep as 64-bit masks (bit i = actor i asleep): the
     * actor-id space is fixed per exploration, so the masks are an
     * injective encoding of the set. */
    void
    hashSleep(Hash128 &h) const
    {
        for (size_t base = 0; base < nIds; base += 64) {
            uint64_t mask = 0;
            size_t end = std::min(nIds, base + 64);
            for (size_t id = base; id < end; ++id)
                mask |= static_cast<uint64_t>(curSleep[id] != 0)
                        << (id - base);
            h.put64(mask);
        }
    }

    const sim::ActorOption *
    findActor(const Node &node, int id) const
    {
        for (const auto &a : node.actors) {
            if (a.id == id)
                return &a;
        }
        return nullptr;
    }

    /** Set curSleep to the child sleep set of `node` descended via
     * node.chosen: (sleepIn ∪ explored siblings) minus everything
     * dependent on the chosen slot. */
    void
    updateSleepAfter(const Node &node)
    {
        if (!opts->sleepSets) {
            return;
        }
        const sim::ActorOption &a = node.actors[node.chosen];
        if (node.doneIds.empty()) {
            // Fast path: nobody newly asleep. The child set is the
            // entry set minus dependants of the chosen slot; when the
            // entry set is empty (the common case off the first
            // branch), the child set is too.
            bool any = false;
            for (uint8_t s : node.sleepIn)
                any = any || s;
            if (!any) {
                std::fill(curSleep.begin(), curSleep.end(), 0);
                return;
            }
        }
        sleepScratch.assign(node.sleepIn.begin(), node.sleepIn.end());
        sleepScratch.resize(nIds, 0);
        for (int id : node.doneIds)
            sleepScratch[static_cast<size_t>(id)] = 1;
        sleepScratch[static_cast<size_t>(a.id)] = 0;
        for (size_t id = 0; id < nIds; ++id) {
            if (!sleepScratch[id])
                continue;
            const sim::ActorOption *u =
                findActor(node, static_cast<int>(id));
            if (!u || !sim::independentActors(*u, a))
                sleepScratch[id] = 0;
        }
        std::swap(curSleep, sleepScratch);
    }

    // ---- subtree accounting -----------------------------------------

    /** Fold the arena finals at `at` (appendFinals) into the
     * deepest node. */
    void
    contributeFinals(size_t at)
    {
        Weights &dst =
            traceLen == 0 ? rootFinals : trace[traceLen - 1].finals;
        uint64_t head = finalsArena[at];
        size_t first = head >> 32, len = head & 0xffffffffu;
        if (dst.size() < first + len)
            dst.resize(first + len, 0);
        const uint64_t *src = finalsArena.data() + at + 1;
        for (size_t i = 0; i < len; ++i)
            dst[first + i] += src[i];
    }

    void
    contributeOne(uint32_t id)
    {
        bumpWeight(traceLen == 0 ? rootFinals
                                 : trace[traceLen - 1].finals,
                   id);
    }

    /** Append the nonzero range of `w` to the finals arena as a
     * header word `first << 32 | len` followed by `len` weights;
     * returns the header's offset. Trimming the zero ends drops about
     * half the words on the looped scenarios, whose subtrees reach
     * few of the test's outcomes. */
    size_t
    appendFinals(const Weights &w)
    {
        size_t first = 0, end = w.size();
        while (end > 0 && w[end - 1] == 0)
            --end;
        while (first < end && w[first] == 0)
            ++first;
        size_t at = finalsArena.size();
        finalsArena.push_back((static_cast<uint64_t>(first) << 32) |
                              (end - first));
        finalsArena.insert(finalsArena.end(), w.begin() + first,
                           w.begin() + end);
        return at;
    }

    void
    taintDeepest(size_t greyDepth)
    {
        if (traceLen > 0)
            trace[traceLen - 1].taint =
                std::min(trace[traceLen - 1].taint, greyDepth);
    }

    /** Memo table plus finals arena, in allocated bytes. */
    size_t
    memoBytes() const
    {
        return memo.bytes() +
               finalsArena.capacity() * sizeof(uint64_t);
    }

    /** Pop the deepest node, folding its finals (and, when it cannot
     * be declared complete, its taint) into its parent. `blacken`
     * is false during a budget abort: nothing gets memoised then. */
    void
    popTop(bool blacken)
    {
        Node &top = trace[traceLen - 1];
        --traceLen;
        size_t my_depth = traceLen;

        if (top.isSchedule && top.hasKey) {
            if (blacken && top.taint >= my_depth) {
                VisitEntry *entry = nullptr;
                if (opts->debugStateKeys) {
                    auto it = visitedStr.find(top.stringKey);
                    if (it != visitedStr.end())
                        entry = &it->second;
                } else {
                    entry = memo.find(top.key);
                }
                if (entry)
                    entry->blacken(appendFinals(top.finals));
                ++stats.distinctStates;
            } else {
                // Part of a cycle to a live ancestor (or aborted):
                // its finals are incomplete, so forget the state and
                // let a future visit re-explore it.
                if (opts->debugStateKeys)
                    visitedStr.erase(top.stringKey);
                else
                    memo.erase(top.key);
            }
        }

        if (traceLen == 0) {
            foldWeights(rootFinals, top.finals);
        } else {
            Node &p = trace[traceLen - 1];
            foldWeights(p.finals, top.finals);
            if (top.taint < my_depth)
                p.taint = std::min(p.taint, top.taint);
        }
    }

    /** Advance to the next unexplored alternative; true = drained. */
    bool
    backtrack()
    {
        while (traceLen > 0) {
            Node &top = trace[traceLen - 1];
            if (!top.pending.empty()) {
                if (top.isSchedule)
                    top.doneIds.push_back(
                        top.actors[top.chosen].id);
                top.chosen = top.pending.front();
                top.pending.erase(top.pending.begin());
                return false;
            }
            popTop(true);
        }
        return true;
    }

    // ---- the search -------------------------------------------------

    /** Outcome id of the machine's just-finished leaf, memoised by
     * final-state digest on the fast path. Debug mode materialises
     * every leaf (the PR-3 behaviour), so the two modes cross-check
     * the digest memo as well as the state keys. */
    uint32_t
    leafOutcomeId()
    {
        if (opts->debugStateKeys)
            return outcomes.intern(machine.finalState());
        return outcomes.idOf(machine);
    }

    // ---- the search loop --------------------------------------------

    /** Budget admission for the next replay. */
    bool
    admitReplay() const
    {
        if (stats.replays >= opts->maxReplays)
            return false;
        size_t states = opts->debugStateKeys ? visitedStr.size()
                                             : memo.size();
        return !opts->stateCache || states < opts->maxStates;
    }

    /**
     * The DFS loop: admit, replay (resuming from the deepest
     * checkpoint on the spine), contribute the leaf or cut,
     * backtrack — until the tree is drained or a failed admission
     * sets `aborted`.
     */
    void
    run()
    {
        // Telemetry observes the search; it never steers it. The
        // per-replay counter and the heartbeat callback fire on the
        // replay cadence only — traversal, pruning and results are
        // bit-identical with them on or off (tests pin this).
        const bool obs_on = obs::enabled();
        obs::Counter &replay_counter =
            obs::counter("mc_replays_total");
        for (;;) {
            if (!admitReplay()) {
                aborted = true;
                return;
            }
            ++stats.replays;
            if (obs_on)
                replay_counter.add();
            if (opts->heartbeat && opts->heartbeatEvery &&
                stats.replays % opts->heartbeatEvery == 0)
                opts->heartbeat(stats);
            std::fill(curSleep.begin(), curSleep.end(), 0);
            cutPending = false;
            // Resume from the deepest checkpoint on the spine: the
            // replayed prefix shrinks from the whole trace to the
            // slice after the last schedule node. The choices
            // consumed — and therefore the traversal — are identical
            // to a root replay.
            size_t resume_at = SIZE_MAX;
            if (opts->checkpoints) {
                for (size_t i = traceLen; i-- > 0;) {
                    if (trace[i].hasSnap) {
                        resume_at = i;
                        break;
                    }
                }
            }
            bool finished;
            if (resume_at != SIZE_MAX) {
                ++stats.resumes;
                depth = resume_at;
                finished =
                    machine.resumeLight(trace[resume_at].snap, *this);
            } else {
                depth = 0;
                finished = machine.runLight(*this);
            }
            if (!finished) {
                // The replay was abandoned at a memoised state
                // (cutPending is set; the machine has no final
                // state).
                if (cutFinals != SIZE_MAX)
                    contributeFinals(cutFinals);
                if (cutTaint != SIZE_MAX)
                    taintDeepest(cutTaint);
            } else {
                contributeOne(leafOutcomeId());
                // A guard-truncated execution is a real (sampler-
                // reachable) outcome and is recorded, but the tree
                // beyond the guard was not enumerated: bounded.
                if (machine.lastRunTruncated())
                    truncatedLeaf = true;
            }
            if (backtrack())
                return;
        }
    }
};

} // namespace

// ---------------------------------------------------------------------
// Explorer::Impl — the driver
// ---------------------------------------------------------------------

struct Explorer::Impl
{
    ExploreOptions opts;
    sim::ChipProfile chip;
    const litmus::Test *test;
    Walker walker;

    Impl(const sim::ChipProfile &c, const litmus::Test &t,
         ExploreOptions o)
        : opts(std::move(o)), chip(c), test(&t),
          walker(chip, t, &opts)
    {
    }

    ExploreResult
    explore()
    {
        auto start = std::chrono::steady_clock::now();
        obs::Span span("explore " + test->name + "@" +
                           walker.machine.chip().shortName,
                       "mc");
        walker.run();
        // On a budget abort the open spine still holds sound partial
        // results: fold them down without memoising anything. (A
        // drained search already has an empty spine.)
        while (walker.traceLen > 0)
            walker.popTop(false);
        return assemble(!walker.aborted, start);
    }

    ExploreResult
    assemble(bool complete,
             std::chrono::steady_clock::time_point start)
    {
        ExploreResult result;
        result.testName = test->name;
        result.chipName = walker.machine.chip().shortName;
        result.column = opts.machine.inc.column();
        result.complete =
            complete && !walker.loopDedup && !walker.truncatedLeaf;
        // Drained with loop-dedup cuts as the only caveat: exact for
        // every execution whose spin loops terminate.
        result.fairComplete = complete && !walker.truncatedLeaf;
        // Un-intern the dense accounting back into the string-keyed
        // result shape the eval layer consumes.
        for (uint32_t id = 0; id < walker.rootFinals.size(); ++id) {
            if (walker.rootFinals[id] == 0)
                continue;
            const std::string &name = walker.outcomes.key(id);
            result.finals[name] = walker.rootFinals[id];
            if (walker.outcomes.satisfies(id))
                result.satisfying.insert(name);
            result.paths += walker.rootFinals[id];
        }
        result.stats = walker.stats;
        result.budgetReplays = opts.maxReplays;
        result.budgetStates = opts.maxStates;
        auto end = std::chrono::steady_clock::now();
        result.millis =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        // Fold the search-shape statistics into the process registry
        // (replays were already ticked live for heartbeat rates).
        if (obs::enabled()) {
            obs::counter("mc_explorations_total").add();
            // `complete` (the parameter) is the budget flag; the
            // result field also folds in loop-dedup caveats.
            if (!complete)
                obs::counter("mc_bounded_total").add();
            obs::counter("mc_state_cuts_total")
                .add(walker.stats.stateCuts);
            obs::counter("mc_sleep_skips_total")
                .add(walker.stats.sleepSkips);
            obs::counter("mc_states_cached_total")
                .add(walker.stats.distinctStates);
            obs::counter("mc_resumes_total").add(walker.stats.resumes);
            obs::counter("mc_issue_branches_total")
                .add(walker.issueBranches);
            obs::counter("mc_replayed_choices_total")
                .add(walker.stats.replayedChoices);
            obs::gauge("mc_last_peak_depth")
                .set(static_cast<int64_t>(walker.stats.peakDepth));
            obs::gauge("mc_last_memo_bytes")
                .set(static_cast<int64_t>(walker.memoBytes()));
        }
        return result;
    }
};

// ---------------------------------------------------------------------
// Explorer / ExploreResult
// ---------------------------------------------------------------------

Explorer::Explorer(const sim::ChipProfile &chip,
                   const litmus::Test &test, ExploreOptions opts)
    : impl_(std::make_unique<Impl>(chip, test, std::move(opts)))
{
}

Explorer::~Explorer() = default;

ExploreResult
Explorer::explore()
{
    return impl_->explore();
}

std::string
ExploreResult::verdict(const litmus::Test &test) const
{
    bool sat = !satisfying.empty();
    bool ok;
    switch (test.quantifier) {
      case litmus::Quantifier::Exists:
        ok = sat;
        break;
      case litmus::Quantifier::NotExists:
        ok = !sat;
        break;
      case litmus::Quantifier::Forall:
        ok = satisfying.size() == finals.size();
        break;
      default:
        ok = false;
        break;
    }
    std::string v = ok ? "Ok" : "No";
    if (!complete)
        v += fairComplete ? " (fair)" : " (bounded)";
    return v;
}

std::string
ExploreResult::str() const
{
    std::string out;
    out += "Exploration " + testName + "@" + chipName + " (column " +
           std::to_string(column) + ")\n";
    out += (complete ? std::string("complete: ")
            : fairComplete
                ? std::string("complete for terminating executions"
                              " (spin-loop dedup): ")
                : std::string("BOUNDED (budget or loop guard): ")) +
           std::to_string(finals.size()) + " reachable states, " +
           std::to_string(paths) + " paths\n";
    for (const auto &[key, weight] : finals) {
        out += "  " + std::to_string(weight) + "  " + key;
        if (satisfying.count(key))
            out += "  *";
        out += "\n";
    }
    out += "replays " + std::to_string(stats.replays) + " (" +
           std::to_string(stats.resumes) + " resumed), states " +
           std::to_string(stats.distinctStates) + ", state cuts " +
           std::to_string(stats.stateCuts) + ", sleep skips " +
           std::to_string(stats.sleepSkips) + ", peak depth " +
           std::to_string(stats.peakDepth) + ", replayed choices " +
           std::to_string(stats.replayedChoices) + "\n";
    return out;
}

std::string
ExploreResult::report() const
{
    std::string out = str();
    // The diagnosability tail: which budget bit, and how the search
    // was shaped when it did. Budgets are advisory fields (0 when the
    // result came back from the persistent store).
    auto pct = [](uint64_t used, uint64_t budget) {
        if (!budget)
            return std::string("?");
        return std::to_string(used * 100 / budget) + "%";
    };
    out += "budget: replays " + std::to_string(stats.replays);
    if (budgetReplays)
        out += "/" + std::to_string(budgetReplays) + " (" +
               pct(stats.replays, budgetReplays) + ")";
    out += ", states " + std::to_string(stats.distinctStates);
    if (budgetStates)
        out += "/" + std::to_string(budgetStates) + " (" +
               pct(stats.distinctStates, budgetStates) + ")";
    out += ", deepest frontier " + std::to_string(stats.peakDepth) +
           "\n";
    if (!complete && !fairComplete) {
        bool replays_out =
            budgetReplays && stats.replays >= budgetReplays;
        out += std::string("bounded by: ") +
               (replays_out ? "replay budget — raise --budget"
                            : "state cap or step guard") +
               "\n";
    }
    return out;
}

} // namespace gpulitmus::mc
