/**
 * @file
 * Tests for the telemetry layer (obs/): registry aggregation across
 * threads, timer monotonicity, Chrome-trace JSON well-formedness,
 * Prometheus exposition shape, metrics parity between the serve path
 * and the batch engine, and — the load-bearing invariant — bit
 * identity of results with telemetry on vs off.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace gpulitmus {
namespace {

namespace pl = litmus::paperlib;
namespace fs = std::filesystem;

/** Every test starts from a clean, enabled registry and restores the
 * default state on exit so suites compose in one binary. */
struct ObsTest : ::testing::Test
{
    void
    SetUp() override
    {
        obs::setEnabled(true);
        obs::Registry::instance().reset();
        obs::Trace::stop();
    }

    void
    TearDown() override
    {
        obs::Trace::stop();
        obs::Registry::instance().reset();
        obs::setEnabled(true);
    }
};

// ---- registry -------------------------------------------------------

TEST_F(ObsTest, CounterAggregatesAcrossThreads)
{
    obs::Counter &c = obs::counter("test_threads_total");
    constexpr int kThreads = 8;
    constexpr uint64_t kPer = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&c]() {
            for (uint64_t i = 0; i < kPer; ++i)
                c.add();
        });
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPer);

    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(41);
    c.add();
    EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsTest, RegistryHandlesAreStableAcrossLookups)
{
    obs::Counter &a = obs::counter("test_stable");
    a.add(7);
    obs::Counter &b = obs::counter("test_stable");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 7u);
    // reset() zeroes but never invalidates.
    obs::Registry::instance().reset();
    a.add(1);
    EXPECT_EQ(b.value(), 1u);
}

TEST_F(ObsTest, GaugeTracksLivePopulation)
{
    obs::Gauge &g = obs::gauge("test_live");
    g.add(3);
    g.add(-1);
    EXPECT_EQ(g.value(), 2);
    g.set(10);
    EXPECT_EQ(g.value(), 10);
}

TEST_F(ObsTest, TimerStatisticsAreMonotoneAndExact)
{
    obs::Timer &t = obs::timer("test_latency_us");
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.minMicros(), 0u); // empty timer reports 0, not 2^64

    std::vector<std::thread> pool;
    for (int w = 0; w < 4; ++w)
        pool.emplace_back([&t, w]() {
            for (uint64_t i = 1; i <= 100; ++i)
                t.record(i + static_cast<uint64_t>(w) * 100);
        });
    for (auto &th : pool)
        th.join();

    EXPECT_EQ(t.count(), 400u);
    // sum(1..400) exactly: the striped sums lose nothing.
    EXPECT_EQ(t.sumMicros(), 400u * 401u / 2);
    EXPECT_EQ(t.minMicros(), 1u);
    EXPECT_EQ(t.maxMicros(), 400u);
    EXPECT_LE(t.minMicros(), t.maxMicros());
    // Buckets cover every record once.
    uint64_t bucketed = 0;
    for (size_t b = 0; b < obs::Timer::kBuckets; ++b)
        bucketed += t.bucket(b);
    EXPECT_EQ(bucketed, 400u);
}

TEST_F(ObsTest, TimerScopeRecordsNonDecreasingDurations)
{
    obs::Timer &t = obs::timer("test_scope_us");
    {
        obs::TimerScope scope(t);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(t.count(), 1u);
    EXPECT_GE(t.maxMicros(), 1000u); // slept >= 2ms, clocks are coarse
    EXPECT_GE(t.sumMicros(), t.minMicros());
}

TEST_F(ObsTest, DisabledTelemetryRecordsNothing)
{
    obs::setEnabled(false);
    obs::Counter &c = obs::counter("test_disabled");
    obs::Gauge &g = obs::gauge("test_disabled_gauge");
    obs::Timer &t = obs::timer("test_disabled_us");
    c.add(5);
    g.set(5);
    {
        obs::TimerScope scope(t);
    }
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(t.count(), 0u);
    obs::setEnabled(true);
    c.add(1);
    EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsTest, RegistryJsonAndPrometheusRenderEveryKind)
{
    obs::counter("test_json_total").add(3);
    obs::gauge("test_json_gauge").set(-2);
    obs::timer("test_json_us").record(10);
    obs::timer("test_json_us").record(30);

    auto doc = json::parse(obs::Registry::instance().json());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->getInt("test_json_total", -1), 3);
    EXPECT_EQ(doc->getInt("test_json_gauge", 0), -2);
    const json::Value *timer = doc->find("test_json_us");
    ASSERT_NE(timer, nullptr);
    EXPECT_EQ(timer->getInt("count", -1), 2);
    EXPECT_EQ(timer->getInt("sum_us", -1), 40);
    EXPECT_EQ(timer->getInt("min_us", -1), 10);
    EXPECT_EQ(timer->getInt("max_us", -1), 30);
    EXPECT_EQ(timer->getInt("mean_us", -1), 20);

    std::string prom = obs::Registry::instance().prometheus();
    EXPECT_NE(prom.find("# TYPE gpulitmus_test_json_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("gpulitmus_test_json_total 3"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE gpulitmus_test_json_gauge gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("gpulitmus_test_json_us_count 2"),
              std::string::npos);
    EXPECT_NE(prom.find("gpulitmus_test_json_us_sum_us 40"),
              std::string::npos);
    // Text exposition ends in a newline (scrapers require it).
    ASSERT_FALSE(prom.empty());
    EXPECT_EQ(prom.back(), '\n');
}

// ---- tracing --------------------------------------------------------

TEST_F(ObsTest, TraceJsonParsesBackAndCarriesTheSpans)
{
    obs::Trace::start();
    EXPECT_TRUE(obs::Trace::active());
    {
        obs::Span outer("outer", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        {
            obs::Span inner("inner", "test");
        }
    }
    std::string text = obs::Trace::json();
    obs::Trace::stop();
    EXPECT_FALSE(obs::Trace::active());

    auto doc = json::parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    EXPECT_EQ(doc->getString("displayTimeUnit"), "ms");
    const json::Value *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    const auto &list = events->array();
    ASSERT_EQ(list.size(), 2u); // inner closes first, then outer
    bool saw_outer = false, saw_inner = false;
    for (const auto &e : list) {
        EXPECT_EQ(e.getString("ph"), "X");
        EXPECT_EQ(e.getString("cat"), "test");
        EXPECT_GE(e.getInt("tid", -1), 1);
        EXPECT_GE(e.getInt("ts", -1), 0);
        EXPECT_GE(e.getInt("dur", -1), 0);
        saw_outer |= e.getString("name") == "outer";
        saw_inner |= e.getString("name") == "inner";
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_inner);
}

TEST_F(ObsTest, InactiveTraceCollectsNothing)
{
    {
        obs::Span span("ignored", "test");
    }
    auto doc = json::parse(obs::Trace::json());
    ASSERT_TRUE(doc.has_value());
    const json::Value *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array().empty());

    // GPULITMUS_OBS=0 forces tracing off even after start().
    obs::setEnabled(false);
    obs::Trace::start();
    EXPECT_FALSE(obs::Trace::active());
    obs::Trace::stop();
}

TEST_F(ObsTest, TraceWriteFileRoundTrips)
{
    obs::Trace::start();
    {
        obs::Span span("file span", "test");
    }
    fs::path path = fs::temp_directory_path() /
                    ("gls_trace_" + std::to_string(::getpid()) +
                     ".json");
    std::string error;
    ASSERT_TRUE(obs::Trace::writeFile(path.string(), &error))
        << error;
    obs::Trace::stop();

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    auto doc = json::parse(ss.str());
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("traceEvents"), nullptr);
    EXPECT_EQ(doc->find("traceEvents")->array().size(), 1u);
    fs::remove(path);
}

// ---- engine / explorer wiring ---------------------------------------

harness::Job
simJob(const litmus::Test &test, uint64_t iterations = 2000)
{
    harness::RunConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = 12345;
    cfg.inc = sim::Incantations::fromColumn(16);
    return harness::Job::fromConfig(sim::chip("Titan"), test, cfg);
}

TEST_F(ObsTest, EngineTicksJobAndCacheCounters)
{
    std::vector<harness::Job> jobs = {simJob(pl::mp()),
                                      simJob(pl::sb()),
                                      simJob(pl::mp())}; // cache hit
    eval::Engine engine;
    auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), 3u);

    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.counter("engine_jobs_total").value(), 3u);
    EXPECT_EQ(reg.counter("engine_batches_total").value(), 1u);
    EXPECT_EQ(reg.counter("engine_jobs_cached_total").value(), 1u);
    EXPECT_EQ(reg.counter("sim_jobs_total").value(), 2u);
    EXPECT_EQ(reg.counter("sim_iterations_total").value(), 4000u);
    // One materialisation per distinct outcome digest, not per run.
    uint64_t materialised =
        reg.counter("sim_outcomes_materialised_total").value();
    EXPECT_GT(materialised, 0u);
    EXPECT_LT(materialised, 4000u);
    EXPECT_EQ(reg.timer("engine_job_latency_us").count(), 2u);
    EXPECT_EQ(reg.timer("engine_queue_wait_us").count(), 2u);
    EXPECT_GT(reg.counter("engine_worker_wall_us_total").value(), 0u);
}

TEST_F(ObsTest, SamplerTicksStepsOnceAndNoTruncationOverTheCorpus)
{
    // The corpus validate's sim jobs (every Nvidia result chip at
    // column 16, the default step bound) never hit a step guard, so
    // no histogram holds a run the bound cut short.
    std::vector<harness::Job> jobs;
    for (const auto &entry : fs::directory_iterator(
             std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests")) {
        std::ifstream in(entry.path());
        std::stringstream ss;
        ss << in.rdbuf();
        auto test = litmus::parseTest(ss.str());
        ASSERT_TRUE(test.has_value()) << entry.path();
        for (const auto &chip : sim::resultChips()) {
            if (!chip.isNvidia())
                continue;
            harness::Job job = simJob(*test, 500);
            job.chip = chip;
            jobs.push_back(std::move(job));
        }
    }
    ASSERT_GE(jobs.size(), 100u);
    uint64_t iterations = 0;
    for (const auto &job : jobs) {
        harness::runJob(job);
        iterations += job.iterations;
    }
    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.counter("sim_truncated_runs_total").value(), 0u);
    // Every run takes at least one step per thread instruction.
    EXPECT_GT(reg.counter("sim_steps_total").value(), 2 * iterations);
}

TEST_F(ObsTest, SamplerCountsRunsTruncatedAtATinyStepBound)
{
    harness::Job job = simJob(pl::casSl(false), 1000);
    job.maxMicroSteps = 24;
    harness::JobResult r = harness::runJob(job);
    auto &reg = obs::Registry::instance();
    uint64_t truncated = reg.counter("sim_truncated_runs_total").value();
    EXPECT_GT(truncated, 0u);
    EXPECT_LE(truncated, 1000u);
    EXPECT_EQ(r.hist.total(), 1000u); // truncated runs still land
    // No run exceeds the bound, and the counter ticked once per job.
    EXPECT_LE(reg.counter("sim_steps_total").value(), 24u * 1000u);
    EXPECT_EQ(reg.counter("sim_jobs_total").value(), 1u);
}

TEST_F(ObsTest, SamplerCountersLeaveResultsBitIdentical)
{
    harness::Job job = simJob(pl::casSl(false), 2000);
    job.maxMicroSteps = 24;
    obs::setEnabled(true);
    harness::JobResult on = harness::runJob(job);
    uint64_t steps_on =
        obs::Registry::instance().counter("sim_steps_total").value();
    obs::Registry::instance().reset();
    obs::setEnabled(false);
    harness::JobResult off = harness::runJob(job);
    obs::setEnabled(true);
    EXPECT_EQ(on.hist.counts(), off.hist.counts());
    EXPECT_EQ(on.hist.observed(), off.hist.observed());
    EXPECT_GT(steps_on, 0u);
    EXPECT_EQ(obs::Registry::instance()
                  .counter("sim_steps_total")
                  .value(),
              0u);
}

TEST_F(ObsTest, ExplorerTicksReplaysAndHeartbeat)
{
    mc::ExploreOptions opts;
    opts.machine.inc = sim::Incantations::fromColumn(16);
    opts.heartbeatEvery = 8;
    uint64_t beats = 0, last_replays = 0;
    opts.heartbeat = [&](const mc::ExploreStats &stats) {
        ++beats;
        EXPECT_GT(stats.replays, last_replays); // monotone
        last_replays = stats.replays;
    };
    litmus::Test mp = pl::mp();
    mc::Explorer explorer(sim::chip("Titan"), mp, opts);
    mc::ExploreResult r = explorer.explore();
    EXPECT_TRUE(r.complete);

    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.counter("mc_replays_total").value(),
              r.stats.replays);
    EXPECT_EQ(reg.counter("mc_explorations_total").value(), 1u);
    EXPECT_EQ(reg.counter("mc_bounded_total").value(), 0u);
    EXPECT_EQ(reg.counter("mc_states_cached_total").value(),
              r.stats.distinctStates);
    // Every memoised state holds a 32-byte memo slot and at least an
    // arena header word.
    EXPECT_GE(reg.gauge("mc_last_memo_bytes").value(),
              static_cast<int64_t>(r.stats.distinctStates * 40));
    // heartbeatEvery=8: one beat per 8 replays, modulo the tail.
    EXPECT_EQ(beats, r.stats.replays / 8);
}

TEST_F(ObsTest, BoundedExplorationReportsItsBudget)
{
    mc::ExploreOptions opts;
    opts.machine.inc = sim::Incantations::fromColumn(16);
    opts.maxReplays = 40;
    litmus::Test mp = pl::mp();
    mc::Explorer explorer(sim::chip("Titan"), mp, opts);
    mc::ExploreResult r = explorer.explore();
    ASSERT_FALSE(r.complete);

    EXPECT_EQ(r.budgetReplays, 40u);
    std::string report = r.report();
    EXPECT_NE(report.find("budget: replays"), std::string::npos);
    EXPECT_NE(report.find("deepest frontier"), std::string::npos);
    EXPECT_NE(report.find("bounded by"), std::string::npos);
    EXPECT_EQ(obs::Registry::instance()
                  .counter("mc_bounded_total")
                  .value(),
              1u);
}

// ---- bit identity ---------------------------------------------------

TEST_F(ObsTest, SweepBitIdenticalWithTelemetryOnAndOff)
{
    auto sweep = []() {
        eval::Engine engine;
        return engine.run({simJob(pl::mp(), 4000),
                           simJob(pl::sb(), 4000),
                           simJob(pl::lb(), 4000)});
    };

    obs::setEnabled(true);
    obs::Trace::start(); // tracing on is the worst case
    auto on = sweep();
    obs::Trace::stop();

    obs::setEnabled(false);
    auto off = sweep();
    obs::setEnabled(true);

    ASSERT_EQ(on.size(), off.size());
    for (size_t i = 0; i < on.size(); ++i) {
        EXPECT_EQ(on[i].hist->counts(), off[i].hist->counts());
        EXPECT_EQ(on[i].observedPer100k, off[i].observedPer100k);
    }
}

TEST_F(ObsTest, ExplorationBitIdenticalWithTelemetryOnAndOff)
{
    auto run = []() {
        mc::ExploreOptions opts;
        opts.machine.inc = sim::Incantations::fromColumn(16);
        opts.heartbeatEvery = 16;
        opts.heartbeat = [](const mc::ExploreStats &) {};
        litmus::Test mp = pl::mp();
        mc::Explorer explorer(sim::chip("Titan"), mp, opts);
        return explorer.explore();
    };
    obs::setEnabled(true);
    mc::ExploreResult on = run();
    obs::setEnabled(false);
    mc::ExploreResult off = run();
    obs::setEnabled(true);

    EXPECT_EQ(on.finals, off.finals);
    EXPECT_EQ(on.satisfying, off.satisfying);
    EXPECT_EQ(on.paths, off.paths);
    EXPECT_EQ(on.stats.replays, off.stats.replays);
    EXPECT_EQ(on.stats.distinctStates, off.stats.distinctStates);
}

TEST_F(ObsTest, ExplorerTicksIssueBranchesOnlyAtRegisterHazards)
{
    // `mov r1,5` can issue while the load into r1 is in flight: one
    // hazard branch per explored point. mp has no hazard at all.
    auto waw = litmus::parseTest(R"(GPU_PTX waw
{global x=1;}
 T0               ;
 ld.cg.s32 r1,[x] ;
 mov.s32 r1,5     ;
ScopeTree(grid(cta((warp T0))))
exists (0:r1=5)
)");
    ASSERT_TRUE(waw.has_value());
    auto run = [](const litmus::Test &test) {
        mc::ExploreOptions opts;
        opts.machine.inc = sim::Incantations::fromColumn(16);
        return mc::Explorer(sim::chip("Titan"), test, opts).explore();
    };
    auto &branches = obs::Registry::instance().counter(
        "mc_issue_branches_total");
    mc::ExploreResult on = run(*waw);
    uint64_t ticked = branches.value();
    EXPECT_GE(ticked, 1u);
    run(pl::mp());
    EXPECT_EQ(branches.value(), ticked);

    // Telemetry off: nothing ticks, and the search is unchanged.
    obs::setEnabled(false);
    mc::ExploreResult off = run(*waw);
    obs::setEnabled(true);
    EXPECT_EQ(branches.value(), ticked);
    EXPECT_EQ(on.finals, off.finals);
    EXPECT_EQ(on.stats.replays, off.stats.replays);
    EXPECT_EQ(on.stats.choicePoints, off.stats.choicePoints);
}

// ---- serve parity ---------------------------------------------------

/** Short-lived daemon for the parity and metrics-command tests. The
 * store directory is caller-owned so a second daemon can reopen it
 * (the warm-restart store-hit path). */
struct ObsServer
{
    std::string socket;
    std::unique_ptr<serve::Server> server;
    std::thread runner;

    ObsServer(const std::string &store_dir, const std::string &tag)
    {
        socket = "/tmp/gls_obs_" + tag + "_" +
                 std::to_string(::getpid()) + ".sock";
        serve::ServerOptions opts;
        opts.socketPath = socket;
        opts.storeDir = store_dir;
        opts.threads = 2;
        std::string error;
        server = serve::Server::create(opts, &error);
        if (server)
            runner = std::thread([this]() { server->run(); });
    }

    ~ObsServer()
    {
        if (server) {
            server->shutdown();
            runner.join();
        }
    }
};

/** Submit `req` and return the named event's payload (null Value if
 * the event never arrived). */
json::Value
submitFor(const std::string &socket, const serve::Request &req,
          const std::string &event_kind)
{
    std::string error;
    auto client = serve::Client::connectUnix(socket, &error);
    EXPECT_NE(client, nullptr) << error;
    json::Value payload;
    if (!client)
        return payload;
    EXPECT_EQ(client->submit(
                  req,
                  [&payload, &event_kind](const json::Value &event,
                                          const std::string &) {
                      if (event.getString("event") == event_kind)
                          payload = event;
                  },
                  &error),
              0)
        << error;
    return payload;
}

/** A served request's result cells with `millis` dropped: the one
 * field that may differ between two runs of the same request. */
std::vector<std::string>
cellsWithoutMillis(serve::Client &client, const serve::Request &req)
{
    std::vector<std::string> cells;
    std::string error;
    EXPECT_EQ(client.submit(
                  req,
                  [&cells](const json::Value &event,
                           const std::string &line) {
                      if (event.getString("event") != "result")
                          return;
                      std::string cell = line;
                      auto at = cell.find(",\"millis\":");
                      if (at != std::string::npos)
                          cell.erase(at, cell.find(',', at + 1) - at);
                      cells.push_back(cell);
                  },
                  &error),
              0)
        << error;
    return cells;
}

TEST_F(ObsTest, RepeatedWarmRequestHitsTheTestMemoAndWritesOnce)
{
    fs::path store_dir =
        fs::temp_directory_path() /
        ("gls_obs_memo_" + std::to_string(::getpid()));
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);

    serve::Request req;
    req.cmd = "validate";
    req.id = "w";
    req.tests = {{"mp", "", ""}, {"", pl::sb().str(), ""}};
    req.chips = {"Titan", "GTX5"};
    req.models = {"ptx"};
    req.iterations = 500;

    ObsServer ts(store_dir.string(), "memo");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    auto client = serve::Client::connectUnix(ts.socket, &error);
    ASSERT_NE(client, nullptr) << error;
    std::string hello;
    ASSERT_TRUE(client->readLine(&hello, &error)) << error;
    auto cold = cellsWithoutMillis(*client, req);

    auto value = [](const char *name) {
        return obs::counter(name).value();
    };
    const uint64_t hits = value("serve_test_cache_hits_total");
    const uint64_t misses = value("serve_test_cache_misses_total");
    const uint64_t writes = value("serve_event_writes_total");
    auto warm = cellsWithoutMillis(*client, req);
    EXPECT_EQ(value("serve_test_cache_hits_total") - hits, 2u);
    EXPECT_EQ(value("serve_test_cache_misses_total"), misses);
    // accepted, eight results, summary and done: one write.
    EXPECT_EQ(value("serve_event_writes_total") - writes, 1u);
    EXPECT_EQ(warm.size(), 8u);
    EXPECT_EQ(cold.size(), warm.size());
    fs::remove_all(store_dir);
}

TEST_F(ObsTest, ServedCellsBitIdenticalWithTelemetryOnAndOff)
{
    serve::Request req;
    req.cmd = "validate";
    req.id = "b";
    req.tests = {{"mp", "", ""}, {"", pl::lb().str(), ""}};
    req.chips = {"Titan", "HD7970"};
    req.models = {"ptx"};
    req.iterations = 500;
    req.exact = true;
    req.budget = 4096;

    // Cold, then warm from the cache, on a fresh daemon and store.
    auto serve_twice = [&req](const std::string &tag) {
        fs::path store_dir =
            fs::temp_directory_path() /
            ("gls_obs_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(store_dir);
        fs::create_directories(store_dir);
        std::vector<std::string> cells;
        {
            ObsServer ts(store_dir.string(), tag);
            EXPECT_NE(ts.server, nullptr);
            std::string error;
            auto client = serve::Client::connectUnix(ts.socket, &error);
            EXPECT_NE(client, nullptr) << error;
            std::string hello;
            if (client && client->readLine(&hello, &error)) {
                for (int pass = 0; pass < 2; ++pass) {
                    for (auto &cell : cellsWithoutMillis(*client, req))
                        cells.push_back(cell);
                }
            }
        }
        fs::remove_all(store_dir);
        return cells;
    };
    auto on = serve_twice("bits_on");
    obs::setEnabled(false);
    auto off = serve_twice("bits_off");
    obs::setEnabled(true);
    ASSERT_FALSE(on.empty());
    EXPECT_EQ(on, off);
}

TEST_F(ObsTest, MetricsCommandReportsEngineAndStoreTraffic)
{
    fs::path store_dir =
        fs::temp_directory_path() /
        ("gls_obs_store_" + std::to_string(::getpid()));
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);

    serve::Request sweep;
    sweep.cmd = "sweep";
    sweep.id = "p1";
    sweep.tests = {{"mp", "", ""}};
    sweep.chips = {"Titan"};
    sweep.models = {"none"};
    sweep.columns = {16};
    sweep.iterations = 1000;

    serve::Request metrics;
    metrics.cmd = "metrics";
    metrics.id = "m";

    // Cold daemon: the sweep computes, misses then feeds the store.
    {
        ObsServer ts(store_dir.string(), "cold");
        ASSERT_NE(ts.server, nullptr);
        submitFor(ts.socket, sweep, "summary");
        json::Value payload =
            submitFor(ts.socket, metrics, "metrics");
        EXPECT_TRUE(payload.getBool("enabled", false));
        const json::Value *m = payload.find("metrics");
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->getInt("engine_jobs_total", -1), 1);
        // Counters register on first tick: the cold run never hits
        // the store, so the counter may be absent — absent reads 0.
        EXPECT_EQ(m->getInt("engine_jobs_from_store_total", 0), 0);
        EXPECT_GE(m->getInt("store_misses_total", 0), 1);
        EXPECT_GE(m->getInt("store_appends_total", 0), 1);
        EXPECT_GE(m->getInt("serve_requests_total", 0), 1);
        EXPECT_GE(m->getInt("serve_clients_connected", 0), 1);
        std::string prom = payload.getString("prometheus");
        EXPECT_NE(prom.find("gpulitmus_serve_requests_total"),
                  std::string::npos);
    }

    // Warm re-submit against a fresh daemon on the same store: the
    // persistent store answers and the hit counter flips.
    obs::Registry::instance().reset();
    {
        ObsServer ts(store_dir.string(), "warm");
        ASSERT_NE(ts.server, nullptr);
        serve::Request again = sweep;
        again.id = "p2";
        submitFor(ts.socket, again, "summary");
        json::Value payload =
            submitFor(ts.socket, metrics, "metrics");
        const json::Value *m = payload.find("metrics");
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->getInt("engine_jobs_total", -1), 1);
        EXPECT_EQ(m->getInt("engine_jobs_from_store_total", -1), 1);
        EXPECT_GE(m->getInt("store_hits_total", 0), 1);
    }

    // The daemon runs the same engine as the batch path, so the same
    // grid ticks the same job counters: submit-vs-batch parity.
    obs::Registry::instance().reset();
    eval::Engine batch;
    batch.run({simJob(pl::mp(), 1000)});
    EXPECT_EQ(obs::counter("engine_jobs_total").value(), 1u);

    fs::remove_all(store_dir);
}

} // namespace
} // namespace gpulitmus
