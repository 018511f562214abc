/**
 * @file
 * The exhaustive schedule explorer: stateless model checking of the
 * operational machine, in the style GPUMC applies to GPU litmus tests.
 *
 * Where the sampling harness runs a test 100k times and reports a
 * histogram, the Explorer *enumerates* the machine's nondeterminism:
 * it replays the simulator depth-first over the tree of choice
 * sequences (sim/choice.h) and returns the exact set of reachable
 * final states. A sampled sweep can only say "never observed"; an
 * exploration says "unreachable" — which is what upgrades the eval
 * layer's `imprecise` conformance verdicts to definitive ones.
 *
 * Pruning, in decreasing order of leverage:
 *
 * - Eager issue: a thread's slot commits one window entry and then
 *   issues up to the next block point (sim::Machine's eager mode), so
 *   the search never enumerates *when* a thread fetches. Issuing is
 *   thread-local and only adds commit options, so no reachable final
 *   state is lost. A register hazard, where the issue time decides a
 *   register value, keeps its IssueOrCommit branch (issue now, or
 *   after a later commit; counted by mc_issue_branches_total).
 *   Issuing before the commit would be unsound: the entries issued
 *   and retired in one slot would escape the slot's footprint.
 *   ExploreOptions::eagerIssue off restores the lazy traversal, which
 *   the tests keep as the differential oracle.
 * - Timing-only choices (start skew, replay delays, drain laziness,
 *   CTA placement) are pinned to a canonical value: exhaustive
 *   scheduling subsumes them, so no reachable final state is lost.
 * - Dead L1: only a .ca load reads an L1 line, so in a test with no
 *   ld.ca the machine makes every L1Warm, CgEvict and FenceInval draw
 *   as an irrelevant chance, which the walker pins, and leaves the L1
 *   lines out of the state key (sim::Machine's "Live L1 lines only").
 *   Such a test explores one L1 warmth pattern rather than one per
 *   subset of (SM, location) lines.
 * - State caching: at every scheduling point the machine state is
 *   encoded canonically; a revisited state contributes its memoised
 *   reachable set and the branch is cut. Cycles (spin loops) are
 *   handled with a Tarjan-style taint watermark — a state is only
 *   memoised once its subtree closed without escaping to a live
 *   ancestor — which also makes unbounded-loop tests terminate.
 * - Sleep sets (DPOR): after a scheduling alternative is fully
 *   explored, it is put to sleep for its siblings' subtrees and only
 *   woken by a dependent memory event, where (in)dependence is judged
 *   from conservative per-actor footprints over the simulator's
 *   memory events. Because the sleep discipline changes which
 *   subtrees are explored, the state-cache key is the (state, sleep
 *   set) pair.
 *
 * A step/branch budget (maxReplays / maxStates) degrades gracefully:
 * when it trips, the result is flagged incomplete ("bounded") and
 * carries everything reached so far — still a sound lower bound on
 * the reachable set, no longer a proof of unreachability.
 *
 * Hot-path machinery (PR 4): the search is *checkpointed* — every
 * branchy schedule node on the DFS spine keeps a machine snapshot
 * (sim::Machine::snapshot), and each new replay resumes from the
 * deepest checkpoint at or above its divergence point instead of
 * re-executing the whole choice prefix from instruction zero. This
 * changes no decision the search makes: the tree traversal, the
 * replay count and every pruning statistic are bit-identical with
 * checkpointing on or off (only wall clock and the per-replay work
 * shrink), which the determinism tests pin. State-cache keys are
 * 128-bit digests streamed incrementally from the machine state
 * (Machine::hashState) rather than materialised strings. They key a
 * flat memo (mc/memo.h): 64 open-addressing segments of 32-byte
 * slots, each growing on its own, with no per-state heap node. A
 * slot holds the fetch-counter signature and one word: the grey
 * depth, or the offset of the black state's reachable finals in an
 * append-only arena the walker owns; a cut folds straight from that
 * span. The original string keying survives behind
 * ExploreOptions::debugStateKeys, which switches the memo to full
 * (collision-free) encodings sharing the same entries and arena —
 * the key-agreement tests explore the whole corpus and the 14
 * scenario variants in both modes and require identical results and
 * statistics, which is how a digest collision would surface. Digests
 * are stable within a build but are not a serialisation format
 * (common/hash.h).
 */

#ifndef GPULITMUS_MC_EXPLORER_H
#define GPULITMUS_MC_EXPLORER_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "litmus/test.h"
#include "sim/chip.h"
#include "sim/machine.h"

namespace gpulitmus::mc {

struct ExploreStats;

struct ExploreOptions
{
    /** Machine configuration: the incantation column gates which
     * reordering mechanisms exist at all, exactly as it does for
     * sampling. */
    sim::MachineOptions machine{};
    /** Replay budget: one replay is one root-to-leaf execution of the
     * machine. Exceeding it yields an incomplete (bounded) result. */
    uint64_t maxReplays = 1u << 20;
    /** Cap on cached states before the search declares itself
     * bounded. */
    uint64_t maxStates = 1u << 22;
    /** Eager issue: thread slots commit, then issue to the next block
     * point (sound; disable to cross-check against the lazy
     * traversal). */
    bool eagerIssue = true;
    /** DPOR sleep-set pruning (sound; disable to cross-check). */
    bool sleepSets = true;
    /** State-cache pruning (sound; disable to cross-check). */
    bool stateCache = true;
    /** Resume replays from machine snapshots at schedule nodes
     * instead of re-executing the whole choice prefix. Pure wall-
     * clock: the traversal and every stat except `resumes` /
     * `replayedChoices` are bit-identical on or off. */
    bool checkpoints = true;
    /** Key the state memo on the full string encodings (the PR-3
     * scheme, collision-free by construction) instead of 128-bit
     * digests. Slow; the tests use it as the reference for digest
     * collisions — any divergence between a run in each mode
     * implicates one. */
    bool debugStateKeys = false;
};

struct ExploreStats
{
    uint64_t replays = 0;      ///< executions of the machine
    uint64_t choicePoints = 0; ///< distinct tree nodes materialised
    uint64_t stateCuts = 0;    ///< branches cut at a cached state
    uint64_t sleepSkips = 0;   ///< schedule alternatives put to sleep
    uint64_t distinctStates = 0; ///< scheduling states memoised
    size_t peakDepth = 0;      ///< deepest choice sequence
    /** Replays resumed from a checkpoint (0 with checkpoints off). */
    uint64_t resumes = 0;
    /** Stored prefix choices re-consumed across all replays — the
     * work checkpointing exists to avoid; compare on vs off. */
    uint64_t replayedChoices = 0;
};

/** The exact outcome of exploring one (chip, test, incantation). */
struct ExploreResult
{
    std::string testName;
    std::string chipName;
    int column = 16;

    /** True when the whole choice tree was drained: `finals` is then
     * the *exact* reachable set. False when a budget tripped: `finals`
     * is a sound lower bound ("bounded" verdict). */
    bool complete = false;

    /**
     * True when the tree was drained and the only exactness caveat is
     * spin-loop dedup (revisits of an equal machine state at a
     * different fetch count — see the runaway-guard discussion in
     * mc/explorer.cc). `finals` is then the exact reachable set of
     * the machine with an *unbounded* step guard: every execution in
     * which all spin loops terminate reaches one of these states and
     * no other. This is the strongest claim an exploration can make
     * about a spin-loop scenario — the sampler's runaway guard is the
     * only behaviour it does not cover. Implies nothing extra for
     * loop-free tests, where it equals `complete`.
     */
    bool fairComplete = false;

    /** Reachable final states: outcome key (litmus::Histogram::keyFor
     * format, the same keys model verdicts use) -> number of explored
     * choice paths producing it. The weight is structural — how many
     * distinct schedules land there, not a probability — and is what
     * conformance reports as rare(weight). */
    std::map<std::string, uint64_t> finals;

    /** Reachable keys whose final state satisfies the condition
     * body. */
    std::set<std::string> satisfying;

    /** Sum of all path weights. */
    uint64_t paths = 0;

    ExploreStats stats;
    double millis = 0.0;

    bool
    reachable(const std::string &key) const
    {
        return finals.count(key) > 0;
    }

    /** Litmus-style verdict against the test's quantifier, qualified
     * by completeness: "Ok"/"No", or "Ok (bounded)" etc. */
    std::string verdict(const litmus::Test &test) const;
};

/**
 * Explores one litmus test on one chip profile. Construct once, call
 * explore(); the search is fully deterministic (no RNG), so repeated
 * explorations are bit-identical.
 */
class Explorer
{
  public:
    Explorer(const sim::ChipProfile &chip, const litmus::Test &test,
             ExploreOptions opts = {});
    ~Explorer();

    ExploreResult explore();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace gpulitmus::mc

#endif // GPULITMUS_MC_EXPLORER_H
