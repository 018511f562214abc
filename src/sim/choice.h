/**
 * @file
 * The simulator's nondeterminism interface: every stochastic decision
 * the operational machine makes — which actor gets the next slot,
 * whether a younger access bypasses an older one, whether a store
 * buffer drains out of order, whether a stale L1 line keeps serving —
 * is a *choice point* routed through one pluggable ChoiceProvider.
 *
 * Two providers exist:
 *
 * - RngChoice samples every choice from an Rng with the probabilities
 *   the chip profile prescribes. Machine::run(Rng&) and
 *   harness::runJob both run it through Machine::runLight(RngChoice&),
 *   the machine's instantiation specialised on this final class; the
 *   draw sequence is bit-identical to the pre-refactor machine:
 *   histograms, seeds and campaign caches are unchanged. Any other
 *   provider wrapping the same Rng, run through the virtual
 *   instantiation, consumes the same stream (test_harness pins it).
 * - mc::Explorer's replay provider (mc/explorer.h) enumerates the
 *   alternatives instead, turning the same machine into an exhaustive
 *   state-space search.
 *
 * Choice kinds are tagged so a provider can apply per-kind policy.
 * Kinds marked "timing-only" below never change the set of reachable
 * final states — they stretch or compress when things happen, which
 * matters for observation *rates* but is subsumed by exhaustive
 * scheduling — so a model checker may pin them to a canonical value.
 *
 * Providers may also *abort* an iteration from a scheduling pick by
 * returning ChoiceProvider::kAbortRun: the machine stops immediately
 * and reports no final state. Searchers use this to cut replays
 * whose continuation is already memoised without paying for an
 * exception unwind per cut (and without serialising worker threads
 * on the unwinder's global lock). Samplers never abort.
 */

#ifndef GPULITMUS_SIM_CHOICE_H
#define GPULITMUS_SIM_CHOICE_H

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace gpulitmus::sim {

enum class ChoiceKind : uint8_t {
    Schedule,     ///< which actor (thread / drain) takes the slot
    IssueOrCommit,///< thread slot: fetch-issue vs retire from window
                  ///  (eager issue: issue now vs after a later
                  ///  commit, asked only at a register hazard)
    CommitBypass, ///< younger window entry overtakes older entries
    DrainLazy,    ///< drain actor defers (timing-only)
    DrainReorder, ///< store buffer drains out of order this time
    DrainIndex,   ///< which younger buffer entry drains early
    StoreBypass,  ///< bank-conflicted store skips the buffer
    AtomFlush,    ///< atomic flushes the SM's buffer before acting
    FenceLeak,    ///< inter-CTA-transparent membar.cta still flushes
    L1Warm,       ///< L1 line starts the iteration warm
    L1StaleServe, ///< stale L1 line serves its old value once more
    CgEvict,      ///< .cg access evicts the matching L1 line
    FenceInval,   ///< fence invalidates one stale L1 line
    Placement,    ///< CTA->SM shuffle pick (SMs are homogeneous and
                  ///  placements distinct, so reachability-irrelevant)
    StartSkew,    ///< thread start delay (timing-only)
    ReplayDelay,  ///< replay penalty of a bypassed entry (timing-only)
};

const char *toString(ChoiceKind kind);

/**
 * Conservative memory-event footprint of one actor's next slot: which
 * testing locations the slot may read or write, and which SM's
 * private structures (store buffer, L1) it may touch. Used by DPOR
 * sleep sets to decide whether two slots commute; over-approximation
 * is sound (it only wakes sleeping actors unnecessarily).
 */
struct ActorFootprint
{
    uint64_t reads = 0;  ///< location-index bitmask
    uint64_t writes = 0; ///< location-index bitmask
    int sm = -1;         ///< SM whose private state the slot may touch
};

/** One row of the scheduler's actor table at a Schedule choice. */
struct ActorOption
{
    /** Stable actor identity across steps: thread tid, or
     * numThreads + smId for an SM's drain actor. */
    int id = 0;
    bool isDrain = false;
    /** May the actor act at all this step? The random scheduler
     * still samples disabled actors (a no-op slot, exactly as the
     * pre-refactor machine did); exhaustive search skips them. */
    bool enabled = false;
    ActorFootprint foot;
};

/** May the two slots be executed in either order with the same
 * outcome? False whenever the footprints conflict (shared location
 * with a write, or the same SM's private structures). */
bool independentActors(const ActorOption &a, const ActorOption &b);

/**
 * The provider interface. The machine calls exactly one method per
 * nondeterministic decision, in a deterministic order given the
 * answers, so a provider can replay and enumerate executions.
 */
class ChoiceProvider
{
  public:
    virtual ~ChoiceProvider() = default;

    /**
     * Sentinel a provider may return from pickActor() to abandon the
     * current iteration: the machine stops immediately and returns an
     * empty (meaningless) final state. Searchers use it to cut
     * replays whose continuation is already memoised — an exception-
     * free fast path that costs one compare per scheduling step.
     * Samplers never return it.
     */
    static constexpr size_t kAbortRun = static_cast<size_t>(-1);

    /** Uniform-shaped pick in [0, n); n >= 1. */
    virtual uint64_t pick(ChoiceKind kind, uint64_t n) = 0;

    /**
     * Bernoulli-shaped choice with probability p of true. `relevant`
     * is false when the machine can prove the answer cannot affect
     * the reachable final states (e.g. warming an L1 line of an SM
     * hosting no testing thread); samplers must ignore it, searchers
     * may pin the answer instead of branching.
     */
    virtual bool chance(ChoiceKind kind, double p, bool relevant = true) = 0;

    /**
     * n irrelevant chances of one kind and probability in a row, their
     * answers dropped: by default exactly n chance(kind, p, false)
     * calls. The sampler advances its Rng by the n draws those calls
     * would consume instead.
     */
    virtual void
    skipChances(ChoiceKind kind, double p, int n)
    {
        for (int i = 0; i < n; ++i)
            chance(kind, p, false);
    }

    /** Does the provider want the actor table at Schedule choices?
     * Samplers say no and the machine skips building footprints on
     * its hot path. */
    virtual bool wantsActors() const { return false; }

    /**
     * Issue mode of a thread's slot. Lazy (false, the sampler's
     * mode): a slot either issues one instruction or commits one
     * window entry, an IssueOrCommit draw deciding when both can.
     * Eager (true): a slot commits one entry, then issues up to the
     * next block point. Issuing is thread-local, so searchers take
     * the eager mode to stop enumerating fetch timing; see
     * Machine::threadAction. Read once per run()/resume().
     */
    virtual bool eagerIssue() const { return false; }

    /**
     * Scheduling pick: one slot among the n actors, or kAbortRun to
     * abandon the iteration. `actors` is null unless wantsActors().
     * The default (sampling) shape is a uniform pick over all n
     * actors, disabled ones included — a disabled pick is a no-op
     * slot, exactly the pre-refactor behaviour.
     */
    virtual size_t
    pickActor(const ActorOption *actors, size_t n)
    {
        (void)actors;
        return static_cast<size_t>(pick(ChoiceKind::Schedule, n));
    }

    /** Replay penalty (in commit slots) charged to a bypassed window
     * entry. Timing-only; searchers return 0. */
    virtual int
    delayBump()
    {
        return 2 + static_cast<int>(pick(ChoiceKind::ReplayDelay, 4));
    }
};

/**
 * The sampling provider: draws every choice from an Rng with the
 * machine-supplied probabilities. One pick()/chance() maps to exactly
 * one below()/chance() on the Rng, so the stream a run consumes is
 * the pre-refactor machine's, and the same through either of the
 * machine's instantiations.
 *
 * The class is final and overrides every hook, so the machine's
 * RngChoice instantiation (Machine::runLight(RngChoice&)) calls them
 * directly: wantsActors() and eagerIssue() fold to constants and each
 * draw inlines to the Rng arithmetic.
 */
class RngChoice final : public ChoiceProvider
{
  public:
    explicit RngChoice(Rng &rng) : rng_(&rng) {}

    uint64_t
    pick(ChoiceKind, uint64_t n) override
    {
        return rng_->below(n);
    }

    bool
    chance(ChoiceKind, double p, bool = true) override
    {
        return rng_->chance(p);
    }

    /** Rng::chance draws only when 0 < p < 1. */
    void
    skipChances(ChoiceKind, double p, int n) override
    {
        if (p > 0.0 && p < 1.0)
            rng_->discard(static_cast<uint64_t>(n));
    }

    bool wantsActors() const override { return false; }
    bool eagerIssue() const override { return false; }

    size_t
    pickActor(const ActorOption *, size_t n) override
    {
        return static_cast<size_t>(rng_->below(n));
    }

    int
    delayBump() override
    {
        return 2 + static_cast<int>(rng_->below(4));
    }

  private:
    Rng *rng_;
};

} // namespace gpulitmus::sim

#endif // GPULITMUS_SIM_CHOICE_H
