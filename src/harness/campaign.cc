#include "harness/campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/log.h"
#include "common/strutil.h"
#include "obs/metrics.h"
#include "scenario/registry.h"

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
    // One-job campaign. The RNG stream is derived from the job key
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

uint64_t
Job::key() const
{
    if (isSim()) {
        // The PR-1 derivation, bit for bit: sim-only sweeps keep
        // their histograms across the backend redesign.
        uint64_t h = splitmix64(seed);
        h = splitmix64(h ^ fnv1a(chip.shortName));
        h = splitmix64(h ^ fnv1a(test.str()));
        h = splitmix64(h ^ static_cast<uint64_t>(inc.column()));
        return h;
    }
    if (isMc()) {
        // Exploration is deterministic: no seed axis. The chip and
        // the incantation column stay — they select which machine
        // mechanisms exist, so they shape the reachable set.
        uint64_t h = splitmix64(fnv1a(backend));
        h = splitmix64(h ^ fnv1a(chip.shortName));
        h = splitmix64(h ^ fnv1a(test.str()));
        return splitmix64(h ^ static_cast<uint64_t>(inc.column()));
    }
    // A model evaluation depends only on (backend, test); excluding
    // the chip/incantation/seed axes lets a grid sweep collapse the
    // redundant cells onto one computation via the result cache.
    uint64_t h = splitmix64(fnv1a(backend));
    return splitmix64(h ^ fnv1a(test.str()));
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

    std::string text = job.test.str();
    uint64_t key = splitmix64(fnv1a(job.chip.shortName)) ^
                   fnv1a(text);
    auto it = cache.find(key);
    if (it != cache.end() &&
        (it->second->chipName != job.chip.shortName ||
         it->second->text != text)) {
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
        entry->text = std::move(text);
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

    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < owned->iterations; ++i)
        result.hist.record(machine.run(rng));
    auto end = std::chrono::steady_clock::now();
    result.millis =
        std::chrono::duration<double, std::milli>(end - start).count();

    if (obs::enabled()) {
        obs::counter("sim_jobs_total").add();
        obs::counter("sim_iterations_total").add(owned->iterations);
    }

    if (result.hist.total() > 0) {
        result.observedPer100k =
            result.hist.observed() * 100000 / result.hist.total();
    }
    return result;
}

// ---- Campaign -------------------------------------------------------

Campaign &
Campaign::iterations(uint64_t n)
{
    iterations_ = n;
    return *this;
}

Campaign &
Campaign::base(const RunConfig &config)
{
    iterations_ = config.iterations;
    seed_ = config.seed;
    maxMicroSteps_ = config.maxMicroSteps;
    baseInc_ = config.inc;
    incSet_ = true;
    return *this;
}

Campaign &
Campaign::overChips(const std::vector<sim::ChipProfile> &chips)
{
    chips_.insert(chips_.end(), chips.begin(), chips.end());
    return *this;
}

Campaign &
Campaign::overChips(const std::vector<std::string> &short_names)
{
    for (const auto &name : short_names)
        chips_.push_back(sim::chip(name));
    return *this;
}

Campaign &
Campaign::overColumns(int lo, int hi)
{
    for (int col = lo; col <= hi; ++col)
        incs_.push_back(sim::Incantations::fromColumn(col));
    return *this;
}

Campaign &
Campaign::overBackends(const std::vector<std::string> &backends)
{
    backends_.insert(backends_.end(), backends.begin(), backends.end());
    return *this;
}

Campaign &
Campaign::overTests(const std::vector<litmus::Test> &tests)
{
    for (const auto &t : tests)
        tests_.push_back({t, ""});
    return *this;
}

Campaign &
Campaign::test(const litmus::Test &t, const std::string &label)
{
    tests_.push_back({t, label});
    return *this;
}

Campaign &
Campaign::scenario(const std::string &spec)
{
    std::string error;
    auto built = gpulitmus::scenario::buildSpec(spec, &error);
    if (!built)
        fatal("%s", error.c_str());
    // No explicit label: the built test's name already carries the
    // scenario id and its parameters ("spinlock_dot_product+t3").
    tests_.push_back({std::move(built->test), "",
                      built->maxMicroSteps});
    return *this;
}

Campaign &
Campaign::add(Job job)
{
    extra_.push_back(std::move(job));
    return *this;
}

std::vector<Job>
Campaign::jobs() const
{
    std::vector<sim::ChipProfile> chips = chips_;
    if (chips.empty())
        chips.push_back(sim::chip("Titan"));
    std::vector<sim::Incantations> incs = incs_;
    if (incs.empty())
        incs.push_back(incSet_ ? baseInc_ : sim::Incantations::all());
    std::vector<std::string> backends = backends_;
    if (backends.empty())
        backends.push_back(kSimBackend);

    std::vector<Job> out;
    out.reserve(tests_.size() * chips.size() * incs.size() *
                    backends.size() +
                extra_.size());
    for (const auto &lt : tests_) {
        for (const auto &chip : chips) {
            for (const auto &inc : incs) {
                for (const auto &backend : backends) {
                    Job job;
                    job.backend = backend;
                    job.chip = chip;
                    job.test = lt.test;
                    job.inc = inc;
                    job.iterations = iterations_;
                    job.seed = seed_;
                    job.maxMicroSteps =
                        std::max(maxMicroSteps_, lt.minMicroSteps);
                    job.label = lt.label;
                    out.push_back(std::move(job));
                }
            }
        }
    }
    out.insert(out.end(), extra_.begin(), extra_.end());
    return out;
}

} // namespace gpulitmus::harness
