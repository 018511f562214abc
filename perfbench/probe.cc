/**
 * @file
 * The benchmark's in-process side: everything perfbench/run.py cannot
 * do through the gpulitmus binary itself.
 *
 * Every mode reads its workload as a file of serve request lines (one
 * wire-format request per line, serve/protocol.h). The batch workloads
 * are rendered as the request the CLI invocation is equivalent to, so
 * the planner turns them into the same job list the CLI runs.
 *
 *   perfbench_probe stamp
 *       compiler, build type, hardware threads and ABI stamp (JSON)
 *   perfbench_probe cells --requests F --threads W
 *       evaluate every request in-process (no store) and print one
 *       {"req":i,"cell":{...}} line per result, the reference the
 *       served and CLI cells are checked against
 *   perfbench_probe load --socket P --requests F --clients C --out F
 *            [--keep i,j,...]
 *       closed-loop load generator over C daemon connections: each
 *       connection sends its next request when the previous one is
 *       answered; writes per-request latency and outcome, plus the
 *       result cells of the --keep requests
 *   perfbench_probe engine --requests F --threads W --clients C
 *            [--store DIR]
 *       run the requests through one eval::Engine from C client
 *       threads (the daemon's concurrency shape) and report the
 *       engine_* and store_* telemetry counters
 *   perfbench_probe layers --requests F --threads W [--store DIR]
 *            [--trace-out F]
 *       time each layer's public functions from outside on the
 *       workload's own inputs: litmus::parseTest, scenario::buildSpec,
 *       serve::planJobs, ResultStore::open/fetchEval/putEval,
 *       harness::runJob, AxiomBackend::evaluate, analysis::analyze,
 *       analysis::enumerateSc and McBackend::evaluate; each call is a
 *       span in the obs::Trace written to --trace-out
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/race.h"
#include "analysis/sc.h"
#include "common/json.h"
#include "common/strutil.h"
#include "common/version.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace gpulitmus;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Flags
{
    std::map<std::string, std::string> values;

    std::string
    get(const std::string &name, const std::string &fallback = "") const
    {
        auto it = values.find(name);
        return it == values.end() ? fallback : it->second;
    }

    int
    getInt(const std::string &name, int fallback) const
    {
        auto v = parseInt(get(name));
        return v ? static_cast<int>(*v) : fallback;
    }
};

Flags
parseFlags(int argc, char **argv)
{
    Flags flags;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string name = argv[i];
        if (startsWith(name, "--"))
            flags.values[name.substr(2)] = argv[i + 1];
    }
    return flags;
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "perfbench_probe: " << message << "\n";
    std::exit(1);
}

/** The request lines of a workload file, parsed. */
std::vector<serve::Request>
loadRequests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot open '" + path + "'");
    std::vector<serve::Request> out;
    std::string line;
    while (std::getline(in, line)) {
        if (trim(line).empty())
            continue;
        std::string error;
        auto req = serve::parseRequest(line, &error);
        if (!req)
            die("bad request line: " + error);
        out.push_back(std::move(*req));
    }
    if (out.empty())
        die("no requests in '" + path + "'");
    return out;
}

serve::Plan
planOrDie(const serve::Request &req)
{
    serve::Plan plan;
    std::string error;
    if (!serve::planJobs(req, &plan, &error))
        die("request '" + req.id + "' does not plan: " + error);
    return plan;
}

std::unique_ptr<serve::ResultStore>
openStoreOrDie(const std::string &dir)
{
    std::string error;
    auto store = serve::ResultStore::open(dir, {}, &error);
    if (!store)
        die(error);
    return store;
}

/** Nearest-rank percentile of an unsorted sample; 0 when empty. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    return v[std::min(rank, v.size() - 1)];
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** Median of a power-of-two µs timer (obs::Timer), interpolated
 * linearly inside the bucket that holds it. */
double
timerMedianMicros(const obs::Timer &timer)
{
    uint64_t count = timer.count();
    if (count == 0)
        return 0.0;
    double half = static_cast<double>(count) / 2.0;
    double seen = 0.0;
    for (size_t b = 0; b < obs::Timer::kBuckets; ++b) {
        double n = static_cast<double>(timer.bucket(b));
        if (n > 0.0 && seen + n >= half) {
            double lo = b == 0 ? 0.0 : static_cast<double>(1ull << b);
            double hi = static_cast<double>(1ull << (b + 1));
            return lo + (hi - lo) * (half - seen) / n;
        }
        seen += n;
    }
    return static_cast<double>(timer.maxMicros());
}

/** Run `body(i)` for i in [0, n) on `threads` workers. */
template <typename Fn>
void
parallelFor(size_t n, int threads, Fn body)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < std::max(1, threads); ++t) {
        pool.emplace_back([&]() {
            for (size_t i = next++; i < n; i = next++)
                body(i);
        });
    }
    for (auto &th : pool)
        th.join();
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

// ---- stamp ------------------------------------------------------------

int
cmdStamp()
{
#if defined(__clang__)
    std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    std::string compiler = std::string("gcc ") + __VERSION__;
#else
    std::string compiler = "unknown";
#endif
    std::cout << "{\"compiler\":\"" << jsonEscape(compiler)
              << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"hardware_threads\":"
              << std::thread::hardware_concurrency() << ",\"abi\":\""
              << kAbiVersionString << "\"}\n";
    return 0;
}

// ---- cells --------------------------------------------------------------

int
cmdCells(const Flags &flags)
{
    auto requests = loadRequests(flags.get("requests"));
    eval::EngineOptions opts;
    opts.threads = flags.getInt("threads", 1);
    eval::Engine engine(opts);
    for (size_t i = 0; i < requests.size(); ++i) {
        for (const auto &r : engine.run(planOrDie(requests[i]).jobs))
            std::cout << "{\"req\":" << i
                      << ",\"cell\":" << eval::evalCellJson(r) << "}\n";
    }
    return 0;
}

// ---- load -------------------------------------------------------------

struct Outcome
{
    double micros = 0.0;
    int exit = -1;
    std::string error;
    std::string summary; ///< the summary event line, verbatim
    std::vector<std::string> cells; ///< result cells (--keep only)
};

int
cmdLoad(const Flags &flags)
{
    auto requests = loadRequests(flags.get("requests"));
    const std::string socket = flags.get("socket");
    const int clients = std::max(1, flags.getInt("clients", 1));
    std::set<size_t> keep;
    for (const auto &part : split(flags.get("keep"), ',')) {
        if (auto v = parseInt(trim(part)))
            keep.insert(static_cast<size_t>(*v));
    }

    std::vector<Outcome> outcomes(requests.size());
    std::atomic<size_t> next{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<int> connectFailures{0};

    auto worker = [&]() {
        std::string error;
        auto client = serve::Client::connectUnix(socket, &error);
        std::string hello;
        if (!client || !client->readLine(&hello, &error)) {
            ++connectFailures;
            ++ready;
            return;
        }
        ++ready;
        while (!go.load())
            std::this_thread::yield();
        for (size_t i = next++; i < requests.size(); i = next++) {
            Outcome &out = outcomes[i];
            const bool kept = keep.count(i) > 0;
            auto start = Clock::now();
            out.exit = client->submit(
                requests[i],
                [&](const json::Value &event, const std::string &line) {
                    const std::string kind = event.getString("event");
                    if (kind == "summary")
                        out.summary = line;
                    else if (kind == "error")
                        out.error = event.getString("message");
                    else if (kind == "result" && kept)
                        out.cells.push_back(line);
                },
                &error);
            out.micros = msSince(start) * 1000.0;
            if (out.exit < 0) {
                out.error = error.empty() ? "transport failure" : error;
                // The connection is unusable: reconnect for the next
                // request, or leave the rest to the other connections
                // when the daemon is gone (they fail the same way).
                client.reset();
                error.clear();
                client = serve::Client::connectUnix(socket, &error);
                if (!client || !client->readLine(&hello, &error))
                    return;
            }
        }
    };

    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c)
        pool.emplace_back(worker);
    while (ready.load() < clients)
        std::this_thread::yield();
    auto start = Clock::now();
    go.store(true);
    for (auto &th : pool)
        th.join();
    double wallMs = msSince(start);

    std::ofstream out(flags.get("out"));
    if (!out)
        die("cannot write '" + flags.get("out") + "'");
    out << "{\"wall_ms\":" << num(wallMs)
        << ",\"clients\":" << clients
        << ",\"connect_failures\":" << connectFailures.load() << "}\n";
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        out << "{\"i\":" << i << ",\"us\":" << num(o.micros)
            << ",\"exit\":" << o.exit << ",\"error\":\""
            << jsonEscape(o.error) << "\",\"summary\":"
            << (o.summary.empty() ? "null" : o.summary) << ",\"cells\":[";
        for (size_t k = 0; k < o.cells.size(); ++k)
            out << (k ? "," : "") << o.cells[k];
        out << "]}\n";
    }
    return out ? 0 : 1;
}

// ---- engine -------------------------------------------------------------

int
cmdEngine(const Flags &flags)
{
    auto requests = loadRequests(flags.get("requests"));
    std::vector<serve::Plan> plans;
    for (const auto &req : requests)
        plans.push_back(planOrDie(req));

    std::unique_ptr<serve::ResultStore> store;
    if (!flags.get("store").empty())
        store = openStoreOrDie(flags.get("store"));

    obs::Registry::instance().reset();
    eval::EngineOptions opts;
    opts.threads = flags.getInt("threads", 1);
    opts.store = store.get();
    eval::Engine engine(opts);

    const int clients = std::max(1, flags.getInt("clients", 1));
    auto start = Clock::now();
    parallelFor(plans.size(), clients,
                [&](size_t i) { engine.run(plans[i].jobs); });
    double wallMs = msSince(start);

    auto value = [](const char *name) {
        return static_cast<double>(obs::counter(name).value());
    };
    double jobs = value("engine_jobs_total");
    double busy = value("engine_worker_busy_us_total");
    double wall = value("engine_worker_wall_us_total");
    double hits = value("store_hits_total");
    double misses = value("store_misses_total");
    std::cout << "{\"wall_ms\":" << num(wallMs)
              << ",\"queue_wait_us_p50\":"
              << num(timerMedianMicros(obs::timer("engine_queue_wait_us")))
              << ",\"worker_util\":" << num(wall > 0 ? busy / wall : 0)
              << ",\"cache_hit_ratio\":"
              << num(jobs > 0 ? value("engine_jobs_cached_total") / jobs
                              : 0)
              << ",\"store_hit_ratio\":"
              << num(hits + misses > 0 ? hits / (hits + misses) : 0)
              << ",\"jobs\":" << num(jobs)
              << ",\"registry\":" << obs::Registry::instance().json()
              << "}\n";
    return 0;
}

// ---- layers -------------------------------------------------------------

/** Passes over the load-and-plan layers and store opens; their
 * timings are sub-millisecond, so each reports a median. */
constexpr int kLayerPasses = 3;

/** What one distinct job cost, layer by layer (ms; -1 = not run). */
struct JobCost
{
    double fetchMs = -1, putMs = -1;
    bool storeHit = false;
    double simMs = -1, modelMs = -1;
    double analyzeMs = -1, scMs = -1, mcEvalMs = -1;
    bool prepass = false;
    uint64_t iterations = 0;
    mc::ExploreStats mcStats;
    bool bounded = false;
};

/** Time `fn` and record it as a benchmark-side span. */
template <typename Fn>
double
timed(const std::string &span, Fn fn)
{
    obs::Span s(span, "perfbench");
    auto start = Clock::now();
    fn();
    return msSince(start);
}

JobCost
costOf(const harness::Job &job, serve::ResultStore *store)
{
    JobCost c;
    const std::string label = job.backend + ":" + job.displayLabel();
    if (store) {
        std::optional<eval::EvalResult> hit;
        c.fetchMs = timed("store.fetch " + label,
                          [&] { hit = store->fetchEval(job); });
        if (hit) {
            c.storeHit = true;
            return c;
        }
    }
    std::optional<eval::EvalResult> result;
    if (job.isSim()) {
        std::optional<harness::JobResult> r;
        c.simMs = timed("sim " + label, [&] { r = harness::runJob(job); });
        c.iterations = job.iterations;
        if (store) {
            // Rebuild the evaluation result the engine would store
            // from the same computation (SimBackend wraps runJob).
            eval::EvalResult e;
            e.job = r->job;
            e.backend = harness::kSimBackend;
            e.hist = std::move(r->hist);
            e.observedPer100k = r->observedPer100k;
            result = std::move(e);
        }
    } else if (job.isMc()) {
        analysis::Report rep;
        c.analyzeMs = timed("analysis.analyze " + label,
                            [&] { rep = analysis::analyze(job.test); });
        if (rep.fullyOrdered) {
            std::optional<analysis::ScResult> sc;
            c.scMs = timed("analysis.sc " + label, [&] {
                sc = analysis::enumerateSc(job.test);
            });
            c.prepass = sc.has_value();
        }
        eval::McBackend mc;
        c.mcEvalMs = timed("mc " + label,
                           [&] { result = mc.evaluate(job); });
        c.mcStats = result->exact->stats;
        c.bounded = !result->exact->complete &&
                    !result->exact->fairComplete;
    } else {
        auto backend = eval::backendByName(job.backend);
        if (!backend)
            die("unknown backend '" + job.backend + "'");
        c.modelMs = timed("model " + label,
                          [&] { result = backend->evaluate(job); });
    }
    if (store && result)
        c.putMs = timed("store.put " + label,
                        [&] { store->putEval(job, *result); });
    return c;
}

int
cmdLayers(const Flags &flags)
{
    auto requests = loadRequests(flags.get("requests"));
    const int threads = std::max(1, flags.getInt("threads", 1));
    const int reps = kLayerPasses;
    const std::string tracePath = flags.get("trace-out");
    if (!tracePath.empty())
        obs::Trace::start();

    // Load and plan: parse every inline source, build every scenario
    // spec, plan every request.
    std::vector<double> parsePass, buildPass, planUs;
    double planPassMs = 0.0;
    std::vector<serve::Plan> plans;
    for (int rep = 0; rep < reps; ++rep) {
        double parseMs = 0.0, buildMs = 0.0, planMs = 0.0;
        for (const auto &req : requests) {
            for (const auto &t : req.tests) {
                if (!t.source.empty()) {
                    parseMs += timed("litmus.parse", [&] {
                        if (!litmus::parseTest(t.source))
                            die("corpus test does not parse");
                    });
                } else if (!t.spec.empty()) {
                    buildMs += timed("scenario.build", [&] {
                        if (!scenario::buildSpec(t.spec))
                            die("bad scenario spec " + t.spec);
                    });
                }
            }
            serve::Plan plan;
            double ms = timed("protocol.plan " + req.cmd,
                              [&] { plan = planOrDie(req); });
            planUs.push_back(ms * 1000.0);
            planMs += ms;
            if (rep == 0)
                plans.push_back(std::move(plan));
        }
        parsePass.push_back(parseMs);
        buildPass.push_back(buildMs);
        if (rep == 0)
            planPassMs = planMs;
    }

    // Store open, on the workload's own pre-filled store.
    std::vector<double> openMs;
    std::unique_ptr<serve::ResultStore> store;
    const std::string storeDir = flags.get("store");
    if (!storeDir.empty()) {
        for (int rep = 0; rep < reps; ++rep) {
            store.reset();
            openMs.push_back(timed("store.open", [&] {
                store = openStoreOrDie(storeDir);
            }));
        }
    }

    // The distinct jobs, in first-seen order: what the engine's cache
    // would evaluate once each.
    std::vector<const harness::Job *> jobs;
    std::unordered_set<uint64_t> seen;
    for (const auto &plan : plans) {
        for (const auto &job : plan.jobs) {
            if (seen.insert(job.cacheKey()).second)
                jobs.push_back(&job);
        }
    }
    std::vector<JobCost> costs(jobs.size());
    auto start = Clock::now();
    parallelFor(jobs.size(), threads, [&](size_t i) {
        costs[i] = costOf(*jobs[i], store.get());
    });
    double computeWallMs = msSince(start);
    if (store)
        store->flush();

    std::vector<double> simMs, modelMs, analyzeMs, scMs, mcMs, fetchUs,
        putUs;
    double selfMs = planPassMs;
    uint64_t iterations = 0, replays = 0, states = 0, cuts = 0,
             replayed = 0, bounded = 0, prepass = 0;
    for (const auto &c : costs) {
        if (c.fetchMs >= 0) {
            fetchUs.push_back(c.fetchMs * 1000.0);
            selfMs += c.fetchMs;
        }
        if (c.putMs >= 0) {
            putUs.push_back(c.putMs * 1000.0);
            selfMs += c.putMs;
        }
        if (c.simMs >= 0) {
            simMs.push_back(c.simMs);
            iterations += c.iterations;
            selfMs += c.simMs;
        }
        if (c.modelMs >= 0) {
            modelMs.push_back(c.modelMs);
            selfMs += c.modelMs;
        }
        if (c.mcEvalMs >= 0) {
            // McBackend::evaluate runs the analyzer and, for a fully
            // ordered program, the SC enumeration itself; what is
            // left is the explorer.
            analyzeMs.push_back(c.analyzeMs);
            if (c.scMs >= 0)
                scMs.push_back(c.scMs);
            selfMs += c.mcEvalMs;
            prepass += c.prepass ? 1 : 0;
            bounded += c.bounded ? 1 : 0;
            if (!c.prepass) {
                mcMs.push_back(std::max(
                    0.0, c.mcEvalMs - c.analyzeMs -
                             std::max(0.0, c.scMs)));
                replays += c.mcStats.replays;
                states += c.mcStats.distinctStates;
                cuts += c.mcStats.stateCuts;
                replayed += c.mcStats.replayedChoices;
            }
        }
    }

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::ostringstream o;
    o << "{\"jobs\":" << jobs.size()
      << ",\"compute_wall_ms\":" << num(computeWallMs)
      << ",\"self_ms\":" << num(selfMs)
      << ",\"litmus.parse_ms\":" << num(percentile(parsePass, 0.5))
      << ",\"scenario.build_ms\":" << num(percentile(buildPass, 0.5))
      << ",\"protocol.plan_us_p50\":" << num(percentile(planUs, 0.5))
      << ",\"store.open_ms\":" << num(percentile(openMs, 0.5))
      << ",\"store.fetch_us_p50\":" << num(percentile(fetchUs, 0.5))
      << ",\"store.put_us_p50\":" << num(percentile(putUs, 0.5))
      << ",\"sim.iterations\":" << iterations
      << ",\"sim.iters_per_s\":"
      << num(ratio(static_cast<double>(iterations), sum(simMs) / 1000.0))
      << ",\"sim.job_ms_p50\":" << num(percentile(simMs, 0.5))
      << ",\"model.check_ms\":" << num(sum(modelMs))
      << ",\"analysis.analyze_ms\":" << num(sum(analyzeMs))
      << ",\"analysis.sc_ms\":" << num(sum(scMs))
      << ",\"analysis.prepass_answered\":" << prepass
      << ",\"mc.replays\":" << replays
      << ",\"mc.replays_per_s\":"
      << num(ratio(static_cast<double>(replays), sum(mcMs) / 1000.0))
      << ",\"mc.states_cached\":" << states
      << ",\"mc.state_cut_ratio\":"
      << num(ratio(static_cast<double>(cuts),
                   static_cast<double>(cuts + replays)))
      << ",\"mc.replayed_choices_per_replay\":"
      << num(ratio(static_cast<double>(replayed),
                   static_cast<double>(replays)))
      << ",\"mc.explore_ms_p50\":" << num(percentile(mcMs, 0.5))
      << ",\"mc.explore_ms_max\":" << num(percentile(mcMs, 1.0))
      << ",\"mc.bounded\":" << bounded << "}";
    std::cout << o.str() << "\n";

    if (!tracePath.empty()) {
        std::string error;
        if (!obs::Trace::writeFile(tracePath, &error))
            die(error);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_probe <stamp|cells|load|engine|layers>"
            " [--flag value ...]");
    const std::string mode = argv[1];
    Flags flags = parseFlags(argc, argv);
    if (mode == "stamp")
        return cmdStamp();
    if (mode == "cells")
        return cmdCells(flags);
    if (mode == "load")
        return cmdLoad(flags);
    if (mode == "engine")
        return cmdEngine(flags);
    if (mode == "layers")
        return cmdLayers(flags);
    die("unknown mode '" + mode + "'");
}
