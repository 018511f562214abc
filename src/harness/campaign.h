/**
 * @file
 * The simulated cell and the campaign grid: the paper's methodology
 * as a first-class API.
 *
 * Every figure and table of the paper is a *sweep* — the same litmus
 * test re-run across a (chip × incantation-column × iterations) grid.
 * A Campaign describes such a grid declaratively as a list of Jobs;
 * eval::Engine (eval/backend.h) executes them on a worker pool and
 * feeds the results, in job order, to pluggable sinks.
 *
 * Determinism is the design center: each Job derives its RNG seed
 * purely from its own key (a splitmix64-mixed hash of base seed, chip,
 * test text and incantation column), never from scheduling, so the
 * histograms are bit-identical at any thread count — and identical to
 * what the single-shot `harness::run` wrapper produces for the same
 * cell.
 *
 * runJob keeps one *compiled machine* per (chip, test) pair per
 * worker thread: the compiled program depends on neither the
 * incantation column nor the iteration count, so a grid that sweeps
 * 16 columns re-parameterises one machine (Machine::setOptions)
 * instead of recompiling sixteen times. Bit-identical to
 * recomputation — the RNG stream is derived from the job key, never
 * from machine identity.
 */

#ifndef GPULITMUS_HARNESS_CAMPAIGN_H
#define GPULITMUS_HARNESS_CAMPAIGN_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "litmus/outcome.h"
#include "sim/chip.h"
#include "sim/machine.h"

namespace gpulitmus::harness {

// ---- single-shot interface (formerly harness/runner.h) --------------

/** Parameters of one simulated cell (Sec. 4.2/4.3). */
struct RunConfig
{
    /** Number of iterations; the paper uses 100k. */
    uint64_t iterations = 100000;
    /** Base RNG seed; every run is reproducible. The per-cell stream
     * is derived from this plus the chip/test/incantation key. */
    uint64_t seed = 0x6c69746d7573ULL; // "litmus"
    /** Incantation combination (Sec. 4.3). */
    sim::Incantations inc = sim::Incantations::all();
    /** Per-iteration machine limits. */
    int maxMicroSteps = 4000;
};

/**
 * Iteration count from the GPULITMUS_ITERS environment variable, or
 * the paper's 100k when unset. Benchmarks use this so CI can dial the
 * runtime down.
 */
uint64_t defaultIterations();

/** Run a test on a chip; returns the full histogram. Thin wrapper
 * over a one-job campaign: the cell is bit-identical — same
 * splitmix64-derived RNG stream — to the same cell inside a batched,
 * multi-threaded sweep. */
litmus::Histogram run(const sim::ChipProfile &chip,
                      const litmus::Test &test,
                      const RunConfig &config = {});

/** Shorthand: number of runs whose final state satisfied the
 * condition body, normalised to per-100k ("obs/100k"). */
uint64_t observePer100k(const sim::ChipProfile &chip,
                        const litmus::Test &test,
                        const RunConfig &config = {});

/** splitmix64 finaliser (Steele, Lea & Flood): a full-avalanche 64-bit
 * mix used to derive per-job seeds and hash job keys. */
uint64_t splitmix64(uint64_t x);

/** Backend id of the operational simulator — the default engine every
 * job names unless redirected (see eval/backend.h for the others). */
inline constexpr const char *kSimBackend = "sim";

/** Backend id of the exhaustive schedule explorer (mc/explorer.h):
 * the same machine as kSimBackend, enumerated instead of sampled. */
inline constexpr const char *kMcBackend = "mc";

/**
 * Worker count from the GPULITMUS_JOBS environment variable, or the
 * hardware concurrency when unset. Benchmarks and the CLI use this so
 * CI can dial parallelism up or down.
 */
int defaultJobs();

/**
 * One cell of a sweep: evaluate `test` under the engine named by
 * `backend`. For the simulator backend that means running it on
 * `chip` under `inc` for `iterations` runs; axiomatic backends (see
 * eval/backend.h) evaluate the test against a memory model and ignore
 * the simulation axes. Self-contained (owns copies of the chip
 * profile and the test) so jobs can outlive whatever built them and
 * run on any worker thread.
 */
struct Job
{
    /** Which engine evaluates this cell: kSimBackend (the default),
     * or any id eval::backendByName resolves ("ptx", "baseline",
     * a .cat file path, ...); eval::Engine dispatches on it. */
    std::string backend = kSimBackend;

    sim::ChipProfile chip;
    litmus::Test test;
    sim::Incantations inc = sim::Incantations::all();
    uint64_t iterations = 100000;
    /** Base seed; the RNG stream is derived from key(), not used raw. */
    uint64_t seed = 0x6c69746d7573ULL; // "litmus"
    int maxMicroSteps = 4000;
    /** Display label for sinks; defaults to "<test>@<chip>" when empty. */
    std::string label;

    static Job fromConfig(const sim::ChipProfile &chip,
                          const litmus::Test &test,
                          const RunConfig &config);

    bool isSim() const { return backend == kSimBackend; }
    /** Exhaustive exploration of the same machine: `iterations`
     * doubles as the replay budget (see eval::McBackend). */
    bool isMc() const { return backend == kMcBackend; }

    /**
     * Identity of the evaluation. For sim jobs this is the RNG
     * stream: a splitmix64-mixed hash of base seed, chip short name,
     * test text and incantation column — exactly the PR-1 derivation,
     * so sim-only sweeps stay bit-identical. It deliberately excludes
     * the iteration count so a longer run of the same cell extends
     * the shorter run's stream instead of resampling it. Exploration
     * (mc) jobs key on (backend, chip, test, incantation) — the seed
     * axis is excluded because the search is deterministic. For model
     * backends the result depends only on (backend, test): the chip,
     * incantation, seed and iteration axes are excluded so a grid
     * sweep checks each (backend, test) pair once.
     */
    uint64_t key() const;

    /** Seed actually fed to the xoshiro generator (sim jobs). */
    uint64_t derivedSeed() const;

    /** Cache identity: key() plus, for sim and mc jobs, iterations
     * (the mc replay budget) and machine limits. */
    uint64_t cacheKey() const;

    /** label, or "<test>@<chip>" ("<test>@<chip>#mc" for mc jobs,
     * "<test>#<backend>" for model jobs) when unset. */
    std::string displayLabel() const;
};

/** Result of one simulated job: the full histogram plus its job.
 * eval::SimBackend wraps it into an eval::EvalResult. */
struct JobResult
{
    /** The job as submitted (shared so histograms, which reference
     * their test, stay valid however results are copied around). */
    std::shared_ptr<const Job> job;
    litmus::Histogram hist;
    /** Observations normalised to per-100k, as the paper reports. */
    uint64_t observedPer100k = 0;
    /** Wall-clock of the simulation. */
    double millis = 0.0;
};

/** Execute one sim job synchronously on the calling thread. This is
 * the single source of truth for how a cell is simulated;
 * `harness::run` and eval::SimBackend both call it. */
JobResult runJob(Job job);

/**
 * Declarative sweep builder. The job list is the cross product
 * tests × chips × incantations × backends (each axis defaulting to a
 * singleton: the Titan, Incantations::all(), the simulator), plus any
 * explicitly add()ed jobs, in row-major order (test outermost,
 * backend innermost). Run the grid with eval::Engine::run(campaign).
 */
class Campaign
{
  public:
    Campaign() = default;

    // ---- base parameters (apply to every grid job) -----------------
    Campaign &iterations(uint64_t n);
    /** Adopt iterations/seed/incantation/limits from a RunConfig. */
    Campaign &base(const RunConfig &config);

    // ---- grid axes --------------------------------------------------
    Campaign &overChips(const std::vector<sim::ChipProfile> &chips);
    /** Chips by registry short name ("Titan", "HD7970", ...). */
    Campaign &overChips(const std::vector<std::string> &short_names);
    /** Tab. 6 incantation columns lo..hi inclusive (1..16). */
    Campaign &overColumns(int lo, int hi);
    /** Backend ids for the innermost grid axis — kSimBackend and/or
     * anything eval::backendByName resolves. A grid that mixes "sim"
     * with model backends pairs every simulated cell with its model
     * evaluations. */
    Campaign &overBackends(const std::vector<std::string> &backends);
    Campaign &overTests(const std::vector<litmus::Test> &tests);
    /** Add one test to the test axis, with an explicit label. */
    Campaign &test(const litmus::Test &t, const std::string &label = "");
    /**
     * Add a registry scenario to the test axis by spec
     * ("scenario:<name>[,k=v...]", scenario/registry.h). The
     * scenario's recommended micro-step cap (spin-loop headroom) is
     * applied to its grid jobs when it exceeds the campaign base.
     * Unknown names/params are fatal; use scenario::buildSpec
     * directly for recoverable validation.
     */
    Campaign &scenario(const std::string &spec);

    /** Append a fully-specified job outside the grid. */
    Campaign &add(Job job);

    /** Materialise the job list. */
    std::vector<Job> jobs() const;

  private:
    struct LabelledTest
    {
        litmus::Test test;
        std::string label;
        /** Per-test micro-step floor (0: campaign base). Registry
         * scenarios with spin loops raise it. */
        int minMicroSteps = 0;
    };

    uint64_t iterations_ = 100000;
    uint64_t seed_ = 0x6c69746d7573ULL;
    int maxMicroSteps_ = 4000;
    bool incSet_ = false;
    sim::Incantations baseInc_ = sim::Incantations::all();
    std::vector<sim::ChipProfile> chips_;
    std::vector<sim::Incantations> incs_;
    std::vector<std::string> backends_;
    std::vector<LabelledTest> tests_;
    std::vector<Job> extra_;
};

} // namespace gpulitmus::harness

#endif // GPULITMUS_HARNESS_CAMPAIGN_H
