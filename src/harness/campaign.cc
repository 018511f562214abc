#include "harness/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/log.h"
#include "common/strutil.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "serve/store.h"

namespace gpulitmus::harness {

// ---- single-shot wrappers (formerly harness/runner.cc) --------------

uint64_t
defaultIterations()
{
    const char *env = std::getenv("GPULITMUS_ITERS");
    if (!env)
        return 100000;
    auto v = parseInt(env);
    if (!v || *v <= 0) {
        warn("ignoring invalid GPULITMUS_ITERS='%s'", env);
        return 100000;
    }
    return static_cast<uint64_t>(*v);
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
    const char *env = std::getenv("GPULITMUS_JOBS");
    if (env) {
        auto v = parseInt(env);
        if (v && *v > 0)
            return static_cast<int>(*v);
        warn("ignoring invalid GPULITMUS_JOBS='%s'", env);
    }
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

// ---- TableSink ------------------------------------------------------

TableSink::TableSink(std::string corner, KeyFn row_of, KeyFn col_of)
    : corner_(std::move(corner)), rowOf_(std::move(row_of)),
      colOf_(std::move(col_of))
{
}

void
TableSink::add(const JobResult &result)
{
    std::string row = rowOf_(result);
    std::string col = colOf_(result);
    if (cells_.find(row) == cells_.end())
        rowOrder_.push_back(row);
    bool col_seen = false;
    for (const auto &c : colOrder_)
        col_seen = col_seen || c == col;
    if (!col_seen)
        colOrder_.push_back(col);
    cells_[row][col] = std::to_string(result.observedPer100k);
}

Table
TableSink::render() const
{
    Table table;
    std::vector<std::string> header{corner_};
    for (const auto &c : colOrder_)
        header.push_back(c);
    table.header(header);
    for (const auto &r : rowOrder_) {
        std::vector<std::string> cells{r};
        const auto &row = cells_.at(r);
        for (const auto &c : colOrder_) {
            auto it = row.find(c);
            cells.push_back(it == row.end() ? "-" : it->second);
        }
        table.row(cells);
    }
    return table;
}

TableSink::KeyFn
TableSink::byChip()
{
    return [](const JobResult &r) { return r.chip().shortName; };
}

TableSink::KeyFn
TableSink::byColumn()
{
    return [](const JobResult &r) { return std::to_string(r.column()); };
}

TableSink::KeyFn
TableSink::byLabel()
{
    return [](const JobResult &r) { return r.label(); };
}

// ---- JsonSink -------------------------------------------------------

std::string
simCellJson(const Job &job, const litmus::Histogram &hist,
            uint64_t observed_per_100k, bool from_cache, double millis)
{
    std::string e = "{";
    e += "\"label\":\"" + jsonEscape(job.displayLabel()) + "\",";
    e += "\"backend\":\"" + jsonEscape(job.backend) + "\",";
    e += "\"test\":\"" + jsonEscape(job.test.name) + "\",";
    e += "\"chip\":\"" + jsonEscape(job.chip.shortName) + "\",";
    e += "\"vendor\":\"" + jsonEscape(job.chip.vendor) + "\",";
    e += "\"column\":" + std::to_string(job.inc.column()) + ",";
    e += "\"incantations\":\"" + jsonEscape(job.inc.str()) + "\",";
    e += "\"iterations\":" + std::to_string(job.iterations) + ",";
    e += "\"seed\":" + std::to_string(job.seed) + ",";
    e += "\"observed\":" + std::to_string(hist.observed()) + ",";
    e += "\"total\":" + std::to_string(hist.total()) + ",";
    e += "\"obs_per_100k\":" + std::to_string(observed_per_100k) +
         ",";
    e += "\"verdict\":\"" + jsonEscape(hist.verdict()) + "\",";
    e += "\"cached\":" + std::string(from_cache ? "true" : "false") +
         ",";
    e += "\"millis\":" + std::to_string(millis) + ",";
    e += "\"counts\":{";
    bool first = true;
    for (const auto &[key, count] : hist.counts()) {
        if (!first)
            e += ",";
        e += "\"" + jsonEscape(key) + "\":" + std::to_string(count);
        first = false;
    }
    e += "}}";
    return e;
}

void
JsonSink::add(const JobResult &result)
{
    entries_.push_back(simCellJson(*result.job, result.hist,
                                   result.observedPer100k,
                                   result.fromCache, result.millis));
}

void
JsonSink::writeTo(std::ostream &os) const
{
    writeJsonArray(os, entries_);
}

bool
JsonSink::writeFile(const std::string &path) const
{
    return writeJsonArrayFile(path, entries_);
}

// ---- Engine ---------------------------------------------------------

Engine::Engine(EngineOptions opts)
    : threads_(opts.threads > 0 ? opts.threads : defaultJobs()),
      cacheEnabled_(opts.cache), store_(opts.store)
{
}

std::vector<JobResult>
Engine::run(const std::vector<Job> &jobs,
            const std::vector<ResultSink *> &sinks, ProgressFn progress)
{
    for (const auto &job : jobs) {
        if (!job.isSim()) {
            fatal("job '%s' names backend '%s'; harness::Engine runs"
                  " the simulator only — use eval::Engine for"
                  " mixed-backend batches",
                  job.displayLabel().c_str(), job.backend.c_str());
        }
    }

    BatchOps<Job, JobResult> ops;
    ops.cacheKey = [](const Job &job) { return job.cacheKey(); };
    // The persistent store is the L2 behind the in-process cache: a
    // cache miss consults it before simulating, and every simulated
    // cell feeds it.
    ops.execute = [store = store_](const Job &job) {
        if (store) {
            if (auto hit = store->fetchSim(job))
                return std::make_shared<JobResult>(std::move(*hit));
        }
        auto result = std::make_shared<JobResult>(runJob(job));
        if (store)
            store->putSim(job, *result);
        return result;
    };
    // A cache or alias hit keeps the computed histogram but must
    // carry the *submitted* job's identity (label, etc.), which the
    // cache key deliberately ignores. Copy the result, then repoint
    // it (and its histogram's internal Test reference) at a copy of
    // the submitted job so the result is correctly labelled and
    // self-contained. eval::Engine::run has the EvalResult twin of
    // this closure — keep the rebind invariant in sync there.
    ops.servedFrom = [](const JobResult &src, const Job &requested) {
        auto hit = std::make_shared<JobResult>(src);
        auto owned = std::make_shared<Job>(requested);
        hit->hist.rebind(owned->test);
        hit->job = std::move(owned);
        hit->fromCache = true;
        hit->millis = 0.0;
        return hit;
    };
    ops.describe = [](const Job &job) { return job.displayLabel(); };

    auto slots = runBatch<Job, JobResult>(
        jobs, threads_, cacheEnabled_ ? &cache_ : nullptr, ops,
        std::move(progress));

    // Deliver to sinks in job order: deterministic at any thread count.
    std::vector<JobResult> results;
    results.reserve(slots.size());
    for (const auto &slot : slots) {
        for (ResultSink *sink : sinks) {
            if (sink)
                sink->add(*slot);
        }
        results.push_back(*slot);
    }
    return results;
}

// ---- Campaign -------------------------------------------------------

Campaign &
Campaign::iterations(uint64_t n)
{
    iterations_ = n;
    return *this;
}

Campaign &
Campaign::seed(uint64_t s)
{
    seed_ = s;
    return *this;
}

Campaign &
Campaign::maxMicroSteps(int n)
{
    maxMicroSteps_ = n;
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
Campaign::overIncantations(const std::vector<sim::Incantations> &incs)
{
    incs_.insert(incs_.end(), incs.begin(), incs.end());
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
Campaign::overScenarios(const std::vector<std::string> &specs)
{
    for (const auto &spec : specs)
        scenario(spec);
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

std::vector<JobResult>
Campaign::run(Engine &engine, const std::vector<ResultSink *> &sinks,
              ProgressFn progress) const
{
    return engine.run(jobs(), sinks, std::move(progress));
}

std::vector<JobResult>
Campaign::run(const std::vector<ResultSink *> &sinks,
              ProgressFn progress) const
{
    Engine engine;
    return engine.run(jobs(), sinks, std::move(progress));
}

} // namespace gpulitmus::harness
