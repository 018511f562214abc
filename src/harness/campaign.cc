#include "harness/campaign.h"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/strutil.h"
#include "obs/metrics.h"
#include "sim/outcomes.h"

namespace gpulitmus::harness {

// ---- single-shot wrappers (formerly harness/runner.cc) --------------

namespace {

/** A positive integer from environment variable `name`; nullopt when
 * unset, or (with a warning) when malformed. */
std::optional<int64_t>
positiveEnv(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return std::nullopt;
    auto v = parseInt(env);
    if (v && *v > 0)
        return v;
    warn("ignoring invalid %s='%s'", name, env);
    return std::nullopt;
}

} // namespace

uint64_t
defaultIterations()
{
    return static_cast<uint64_t>(
        positiveEnv("GPULITMUS_ITERS").value_or(100000));
}

litmus::Histogram
run(const sim::ChipProfile &chip, const litmus::Test &test,
    const RunConfig &config)
{
    // One job. The RNG stream is derived from the job key
    // (splitmix64 over base seed, chip, test and incantation column),
    // so this cell is bit-identical to the same cell in any batched
    // sweep, at any thread count.
    JobResult result = runJob(Job::fromConfig(chip, test, config));
    litmus::Histogram hist = std::move(result.hist);
    hist.rebind(test);
    return hist;
}

uint64_t
observePer100k(const sim::ChipProfile &chip, const litmus::Test &test,
               const RunConfig &config)
{
    return runJob(Job::fromConfig(chip, test, config)).observedPer100k;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

int
defaultJobs()
{
    if (auto v = positiveEnv("GPULITMUS_JOBS"))
        return static_cast<int>(*v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

Job
Job::fromConfig(const sim::ChipProfile &chip, const litmus::Test &test,
                const RunConfig &config)
{
    Job job;
    job.chip = chip;
    job.test = test;
    job.inc = config.inc;
    job.iterations = config.iterations;
    job.seed = config.seed;
    job.maxMicroSteps = config.maxMicroSteps;
    return job;
}

std::shared_ptr<const TestText>
TestText::of(const litmus::Test &test)
{
    auto text = std::make_shared<TestText>();
    text->str = test.str();
    text->hash = fnv1a(text->str);
    return text;
}

std::shared_ptr<const TestText>
Job::renderedTest() const
{
    return text ? text : TestText::of(test);
}

uint64_t
Job::key() const
{
    const uint64_t test_hash = renderedTest()->hash;
    if (isSim()) {
        // The PR-1 derivation, bit for bit: sim-only sweeps keep
        // their histograms across the backend redesign.
        uint64_t h = splitmix64(seed);
        h = splitmix64(h ^ fnv1a(chip.shortName));
        h = splitmix64(h ^ test_hash);
        h = splitmix64(h ^ static_cast<uint64_t>(inc.column()));
        return h;
    }
    if (isMc()) {
        // Exploration is deterministic: no seed axis. The chip and
        // the incantation column stay — they select which machine
        // mechanisms exist, so they shape the reachable set.
        uint64_t h = splitmix64(fnv1a(backend));
        h = splitmix64(h ^ fnv1a(chip.shortName));
        h = splitmix64(h ^ test_hash);
        return splitmix64(h ^ static_cast<uint64_t>(inc.column()));
    }
    // A model evaluation depends only on (backend, test); excluding
    // the chip/incantation/seed axes lets a grid sweep collapse the
    // redundant cells onto one computation via the result cache.
    uint64_t h = splitmix64(fnv1a(backend));
    return splitmix64(h ^ test_hash);
}

uint64_t
Job::derivedSeed() const
{
    // Distinct stream from key() so cache identities and RNG states
    // never coincide.
    return splitmix64(key() ^ 0x67707573696dULL); // "gpusim"
}

uint64_t
Job::cacheKey() const
{
    // Iterations are the sampling depth (sim) or the replay budget
    // (mc); either way they shape the result, unlike model cells.
    if (!isSim() && !isMc())
        return key();
    uint64_t h = splitmix64(key() ^ iterations);
    return splitmix64(h ^ static_cast<uint64_t>(maxMicroSteps));
}

std::string
Job::displayLabel() const
{
    if (!label.empty())
        return label;
    if (isSim())
        return test.name + "@" + chip.shortName;
    if (isMc())
        return test.name + "@" + chip.shortName + "#mc";
    return test.name + "#" + backend;
}

namespace {

/**
 * Per-thread cache of compiled machines, keyed by (chip, test text).
 * A sweep grid revisits the same (chip, test) under many incantation
 * columns and iteration counts; the compiled program depends on
 * neither, so one machine per pair serves the whole batch — each job
 * re-parameterises it via Machine::setOptions and runs. Entries own
 * copies of the chip profile and the test (the machine holds
 * references into its entry), so cached machines outlive the jobs
 * that created them. thread_local keeps workers lock-free and the
 * mutable run state un-shared.
 */
struct CachedMachine
{
    sim::ChipProfile chip;
    litmus::Test test;
    std::string chipName; ///< collision guard alongside the test text
    std::string text;
    std::optional<sim::Machine> machine;
};

sim::Machine &
machineFor(const Job &job)
{
    constexpr size_t kMaxEntries = 64;
    thread_local std::unordered_map<uint64_t,
                                    std::unique_ptr<CachedMachine>>
        cache;

    auto text = job.renderedTest();
    uint64_t key = splitmix64(fnv1a(job.chip.shortName)) ^ text->hash;
    auto it = cache.find(key);
    if (it != cache.end() &&
        (it->second->chipName != job.chip.shortName ||
         it->second->text != text->str)) {
        // 64-bit key collision (astronomically rare): evict rather
        // than risk simulating the wrong machine.
        cache.erase(it);
        it = cache.end();
    }
    if (it == cache.end()) {
        if (cache.size() >= kMaxEntries)
            cache.clear();
        auto entry = std::make_unique<CachedMachine>();
        entry->chip = job.chip;
        entry->test = job.test;
        entry->chipName = job.chip.shortName;
        entry->text = text->str;
        entry->machine.emplace(entry->chip, entry->test,
                               sim::MachineOptions{});
        it = cache.emplace(key, std::move(entry)).first;
    }
    sim::MachineOptions opts;
    opts.inc = job.inc;
    opts.maxMicroSteps = job.maxMicroSteps;
    it->second->machine->setOptions(opts);
    return *it->second->machine;
}

} // namespace

JobResult
runJob(Job job)
{
    if (!job.isSim()) {
        fatal("job '%s' names backend '%s'; harness::runJob simulates"
              " only — evaluate mixed-backend batches via eval::Engine",
              job.displayLabel().c_str(), job.backend.c_str());
    }
    auto owned = std::make_shared<Job>(std::move(job));

    JobResult result{owned, litmus::Histogram(owned->test)};

    // One compiled machine per (chip, test) per worker thread; the
    // job only re-parameterises the runtime options. Bit-identical
    // to compiling fresh: the compiled program is a pure function of
    // the test, and every run draws only from the job-derived RNG.
    sim::Machine &machine = machineFor(*owned);
    Rng rng(owned->derivedSeed());
    sim::RngChoice choices(rng);

    // Record by outcome digest: only a run whose digest is new
    // materialises its final state and renders its key (see
    // sim/outcomes.h); the histogram is filled once at the end.
    // runLight(RngChoice&) is the machine's sampler instantiation,
    // the one Machine::run(Rng&) takes too: it consumes the stream any
    // provider over this Rng would (test_harness pins it against the
    // virtual instantiation), so the result is bit-identical to
    // recording each run's final state. Steps and truncated runs are
    // tallied here and ticked once per job.
    sim::OutcomeTable outcomes(owned->test);
    std::vector<uint64_t> counts;
    uint64_t steps = 0, truncated = 0;
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < owned->iterations; ++i) {
        machine.runLight(choices);
        steps += static_cast<uint64_t>(machine.lastRunSteps());
        truncated += machine.lastRunTruncated() ? 1 : 0;
        uint32_t id = outcomes.idOf(machine);
        if (id >= counts.size())
            counts.resize(id + 1, 0);
        ++counts[id];
    }
    outcomes.fill(result.hist, counts);
    auto end = std::chrono::steady_clock::now();
    result.millis =
        std::chrono::duration<double, std::milli>(end - start).count();

    if (obs::enabled()) {
        obs::counter("sim_jobs_total").add();
        obs::counter("sim_iterations_total").add(owned->iterations);
        obs::counter("sim_outcomes_materialised_total")
            .add(outcomes.materialised());
        obs::counter("sim_steps_total").add(steps);
        obs::counter("sim_truncated_runs_total").add(truncated);
    }

    if (result.hist.total() > 0) {
        result.observedPer100k =
            result.hist.observed() * 100000 / result.hist.total();
    }
    return result;
}

} // namespace gpulitmus::harness
