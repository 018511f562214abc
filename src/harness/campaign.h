/**
 * @file
 * The simulated cell: one Job of a sweep, its key and derived seed,
 * and runJob, which simulates it.
 *
 * Every figure and table of the paper is a *sweep* — the same litmus
 * test re-run across a (chip × incantation-column × iterations) grid.
 * serve::planJobs (serve/protocol.h) builds such a grid from a
 * serve::Request as a list of Jobs; eval::Engine (eval/backend.h)
 * executes them on a worker pool and feeds the results, in job order,
 * to pluggable sinks.
 *
 * Determinism is the design center: each Job derives its RNG seed
 * purely from its own key (a splitmix64-mixed hash of base seed, chip,
 * test text and incantation column), never from scheduling, so the
 * histograms are bit-identical at any thread count — and identical to
 * what runJob computes for the same cell on its own.
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

#include "litmus/outcome.h"
#include "sim/chip.h"
#include "sim/machine.h"

namespace gpulitmus::harness {

/** Base RNG seed of a Job ("litmus"). The per-cell stream is derived
 * from it plus the chip/test/incantation key (Job::derivedSeed). */
inline constexpr uint64_t kBaseSeed = 0x6c69746d7573ULL;

/**
 * Iteration count from the GPULITMUS_ITERS environment variable, or
 * the paper's 100k when unset. Benchmarks use this so CI can dial the
 * runtime down.
 */
uint64_t defaultIterations();

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
 * A test rendered once: its text (litmus::Test::str) and the fnv1a
 * hash of that text. Rendering is the dominant cost of a job's
 * identity, so a planner renders each test once and every job of that
 * test shares the result (Job::text); Job::key() hashes nothing more
 * and serve::ResultStore::digestFor absorbs the shared text. The
 * values are exactly those of rendering afresh, so keys, derived
 * seeds and store digests do not depend on whether it was shared.
 */
struct TestText
{
    std::string str;
    uint64_t hash = 0; ///< fnv1a(str)

    static std::shared_ptr<const TestText> of(const litmus::Test &test);
};

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
    uint64_t seed = kBaseSeed;
    int maxMicroSteps = 4000;
    /** Display label for sinks; defaults to "<test>@<chip>" when empty. */
    std::string label;
    /** `test` rendered once and shared by every job of that test
     * (serve::planJobs sets it); null means "render on demand". Whoever
     * replaces `test` on a job that carries it must reset it. */
    std::shared_ptr<const TestText> text;

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

    /** The rendered test: the shared `text`, or a fresh rendering. */
    std::shared_ptr<const TestText> renderedTest() const;

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
 * eval::SimBackend calls it. The result's histogram reads the test of
 * the result's own job, so keep the JobResult while using it. */
JobResult runJob(Job job);

} // namespace gpulitmus::harness

#endif // GPULITMUS_HARNESS_CAMPAIGN_H
