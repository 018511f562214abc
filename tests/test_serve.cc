/**
 * @file
 * Tests for the serve subsystem: the durable content-addressed result
 * store (roundtrip, crash recovery, ABI staleness, eviction), the
 * wire protocol and its CLI-mirroring planner, and the daemon itself
 * (concurrent clients over a Unix socket, bit-identity with the batch
 * engine, journal replay, graceful shutdown).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <cctype>
#include <cstring>
#include <thread>

#include "common/version.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"

namespace gpulitmus::serve {
namespace {

namespace fs = std::filesystem;
namespace pl = litmus::paperlib;

/** Fresh store directory per test, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("gls_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

harness::Job
simJob(const litmus::Test &test, uint64_t iterations = 500,
       uint64_t seed = 0x6c69)
{
    harness::RunConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), test, cfg);
    job.label = test.name;
    return job;
}

/** A computed sim result, as the engine would store it. */
eval::EvalResult
simulate(const harness::Job &job)
{
    return eval::SimBackend().evaluate(job);
}

/** evalCellJson minus the provenance and timing fields (from_store,
 * cached, millis) — everything that may legitimately differ between a
 * computed result and the same result replayed from cache or disk. */
std::string
stripProvenance(std::string json)
{
    for (const char *marker :
         {",\"from_store\":true", ",\"from_store\":false",
          ",\"cached\":true", ",\"cached\":false"}) {
        auto at = json.find(marker);
        if (at != std::string::npos)
            json.erase(at, std::strlen(marker));
    }
    auto at = json.find(",\"millis\":");
    if (at != std::string::npos) {
        auto end = at + std::strlen(",\"millis\":");
        while (end < json.size() &&
               (std::isdigit(static_cast<unsigned char>(json[end])) ||
                json[end] == '.' || json[end] == '-'))
            ++end;
        json.erase(at, end - at);
    }
    return json;
}

// ---- store: digests -------------------------------------------------

TEST(Store, DigestIsDeterministicAndSeparatesAxes)
{
    harness::Job a = simJob(pl::mp());
    EXPECT_EQ(ResultStore::digestFor(a), ResultStore::digestFor(a));

    // Every key axis moves the digest...
    harness::Job other_seed = a;
    other_seed.seed = 99;
    EXPECT_NE(ResultStore::digestFor(a),
              ResultStore::digestFor(other_seed));
    harness::Job other_col = a;
    other_col.inc = sim::Incantations::fromColumn(3);
    EXPECT_NE(ResultStore::digestFor(a),
              ResultStore::digestFor(other_col));
    harness::Job other_test = simJob(pl::sb());
    EXPECT_NE(ResultStore::digestFor(a),
              ResultStore::digestFor(other_test));
    harness::Job other_backend = a;
    other_backend.backend = "ptx";
    EXPECT_NE(ResultStore::digestFor(a),
              ResultStore::digestFor(other_backend));

    // ...except the seed on mc jobs (the search is deterministic) and
    // the non-key label.
    harness::Job mc_a = a, mc_b = other_seed;
    mc_a.backend = harness::kMcBackend;
    mc_b.backend = harness::kMcBackend;
    EXPECT_EQ(ResultStore::digestFor(mc_a),
              ResultStore::digestFor(mc_b));
    harness::Job relabeled = a;
    relabeled.label = "other-label";
    EXPECT_EQ(ResultStore::digestFor(a),
              ResultStore::digestFor(relabeled));
}

// ---- store: roundtrip and durability --------------------------------

TEST(Store, SimResultRoundTripsAcrossReopen)
{
    TempDir dir("roundtrip");
    harness::Job job = simJob(pl::mp());
    eval::EvalResult computed = simulate(job);

    {
        auto store = ResultStore::open(dir.str());
        ASSERT_NE(store, nullptr);
        EXPECT_FALSE(store->fetchEval(job).has_value());
        store->putEval(job, computed);
        auto hit = store->fetchEval(job);
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(hit->fromStore);
        EXPECT_EQ(hit->hist->counts(), computed.hist->counts());
        ASSERT_TRUE(store->flush());
    }

    // A second open (a new process, as far as the log is concerned)
    // replays the record and serves it bit-identically.
    auto store = ResultStore::open(dir.str());
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().loaded, 1u);
    auto hit = store->fetchEval(job);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hist->counts(), computed.hist->counts());
    EXPECT_EQ(hit->hist->observed(), computed.hist->observed());
    EXPECT_EQ(hit->hist->total(), computed.hist->total());
    EXPECT_EQ(hit->observedPer100k, computed.observedPer100k);
}

TEST(Store, EvalResultsRoundTripVerdictAndExact)
{
    TempDir dir("evalround");
    harness::Job model_job = simJob(pl::mp());
    model_job.backend = "ptx";
    harness::Job mc_job = simJob(pl::sb());
    mc_job.backend = harness::kMcBackend;
    mc_job.iterations = 1 << 18;

    eval::Engine engine;
    auto computed = engine.run({model_job, mc_job});
    ASSERT_EQ(computed.size(), 2u);
    ASSERT_TRUE(computed[0].hasVerdict());
    ASSERT_TRUE(computed[1].hasExact());

    {
        auto store = ResultStore::open(dir.str());
        ASSERT_NE(store, nullptr);
        store->putEval(model_job, computed[0]);
        store->putEval(mc_job, computed[1]);
        ASSERT_TRUE(store->flush());
    }

    auto store = ResultStore::open(dir.str());
    ASSERT_NE(store, nullptr);
    auto verdict_hit = store->fetchEval(model_job);
    ASSERT_TRUE(verdict_hit.has_value());
    EXPECT_TRUE(verdict_hit->fromStore);
    ASSERT_TRUE(verdict_hit->hasVerdict());
    const model::Verdict &got = *verdict_hit->verdict;
    const model::Verdict &want = *computed[0].verdict;
    EXPECT_EQ(got.modelName, want.modelName);
    EXPECT_EQ(got.numCandidates, want.numCandidates);
    EXPECT_EQ(got.numAllowed, want.numAllowed);
    EXPECT_EQ(got.allowedKeys, want.allowedKeys);
    EXPECT_EQ(got.forbiddenKeys, want.forbiddenKeys);
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.conditionSatisfiable, want.conditionSatisfiable);

    auto exact_hit = store->fetchEval(mc_job);
    ASSERT_TRUE(exact_hit.has_value());
    ASSERT_TRUE(exact_hit->hasExact());
    EXPECT_EQ(exact_hit->exact->finals, computed[1].exact->finals);
    EXPECT_EQ(exact_hit->exact->satisfying,
              computed[1].exact->satisfying);
    EXPECT_EQ(exact_hit->exact->complete,
              computed[1].exact->complete);
    EXPECT_EQ(exact_hit->exact->stats.replays,
              computed[1].exact->stats.replays);
}

TEST(Store, AbiMismatchResetsTheLog)
{
    TempDir dir("abireset");
    harness::Job job = simJob(pl::mp());
    {
        auto store = ResultStore::open(dir.str());
        ASSERT_NE(store, nullptr);
        store->putEval(job, simulate(job));
        ASSERT_TRUE(store->flush());
    }

    // Forge a header from another ABI generation: flip one byte of
    // the embedded stamp. The reopened store must serve nothing.
    std::string log = dir.str() + "/results.log";
    {
        std::fstream f(log, std::ios::in | std::ios::out |
                                std::ios::binary);
        f.seekp(12); // first byte of the ABI string
        f.put('X');
    }
    auto store = ResultStore::open(dir.str());
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->stats().resetStale);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_FALSE(store->fetchEval(job).has_value());
}

TEST(Store, TornTailTruncatesToLastIntactRecord)
{
    TempDir dir("torntail");
    harness::Job a = simJob(pl::mp());
    harness::Job b = simJob(pl::sb());
    {
        auto store = ResultStore::open(dir.str());
        ASSERT_NE(store, nullptr);
        store->putEval(a, simulate(a));
        store->putEval(b, simulate(b));
        ASSERT_TRUE(store->flush());
    }

    // Crash mid-append: chop bytes off the tail, leaving record b
    // torn.
    std::string log = dir.str() + "/results.log";
    auto size = fs::file_size(log);
    fs::resize_file(log, size - 5);

    auto store = ResultStore::open(dir.str());
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().loaded, 1u);
    EXPECT_GT(store->stats().truncatedBytes, 0u);
    EXPECT_TRUE(store->fetchEval(a).has_value());
    EXPECT_FALSE(store->fetchEval(b).has_value());

    // The truncation repaired the log: appends keep working and the
    // next open sees a clean file.
    store->putEval(b, simulate(b));
    ASSERT_TRUE(store->flush());
    store.reset();
    auto reopened = ResultStore::open(dir.str());
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->stats().loaded, 2u);
    EXPECT_EQ(reopened->stats().truncatedBytes, 0u);
}

TEST(Store, BitFlipInvalidatesFromTheFlippedRecordOn)
{
    TempDir dir("bitflip");
    harness::Job a = simJob(pl::mp());
    harness::Job b = simJob(pl::sb());
    uint64_t first_record_end = 0;
    {
        auto store = ResultStore::open(dir.str());
        ASSERT_NE(store, nullptr);
        store->putEval(a, simulate(a));
        ASSERT_TRUE(store->flush());
        first_record_end = fs::file_size(dir.str() + "/results.log");
        store->putEval(b, simulate(b));
        ASSERT_TRUE(store->flush());
    }

    // Flip one payload byte inside the second record. The checksum
    // catches it; record one survives, the rest is cut.
    std::string log = dir.str() + "/results.log";
    {
        std::fstream f(log, std::ios::in | std::ios::out |
                                std::ios::binary);
        f.seekg(static_cast<std::streamoff>(first_record_end) + 40);
        char byte = 0;
        f.get(byte);
        f.seekp(static_cast<std::streamoff>(first_record_end) + 40);
        f.put(static_cast<char>(byte ^ 0x40));
    }

    auto store = ResultStore::open(dir.str());
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().loaded, 1u);
    EXPECT_GT(store->stats().truncatedBytes, 0u);
    EXPECT_TRUE(store->fetchEval(a).has_value());
    EXPECT_FALSE(store->fetchEval(b).has_value());
}

TEST(Store, CompactionEvictsOldestWhenOverCap)
{
    TempDir dir("compact");
    StoreOptions opts;
    opts.maxBytes = 2048;
    opts.syncOnFlush = false;
    auto store = ResultStore::open(dir.str(), opts);
    ASSERT_NE(store, nullptr);

    // Distinct digests via the seed axis; enough records to overflow
    // the cap several times.
    eval::EvalResult computed = simulate(simJob(pl::mp()));
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        harness::Job job = simJob(pl::mp(), 500, seed);
        store->putEval(job, computed);
    }
    EXPECT_GT(store->stats().evicted, 0u);
    EXPECT_LT(store->size(), 40u);
    // Newest record survives; the oldest was evicted.
    EXPECT_TRUE(store->fetchEval(simJob(pl::mp(), 500, 40)));
    EXPECT_FALSE(store->fetchEval(simJob(pl::mp(), 500, 1)));

    // The compacted log is valid on reopen.
    size_t live = store->size();
    ASSERT_TRUE(store->flush());
    store.reset();
    auto reopened = ResultStore::open(dir.str(), opts);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->size(), live);
    EXPECT_EQ(reopened->stats().truncatedBytes, 0u);
}

// ---- store behind the engines ---------------------------------------

TEST(Store, WarmEngineRunIsBitIdenticalToCold)
{
    TempDir dir("warmrun");
    std::vector<harness::Job> jobs;
    const litmus::Test tests[] = {pl::mp(), pl::lb()};
    for (const auto &test : tests) {
        harness::Job sim = simJob(test);
        harness::Job model = sim;
        model.backend = "ptx";
        jobs.push_back(sim);
        jobs.push_back(model);
    }

    eval::Engine plain;
    auto baseline = plain.run(jobs);

    StoreOptions sopts;
    sopts.syncOnFlush = false;
    {
        auto store = ResultStore::open(dir.str(), sopts);
        ASSERT_NE(store, nullptr);
        eval::EngineOptions eopts;
        eopts.store = store.get();
        eval::Engine cold(eopts);
        auto cold_results = cold.run(jobs);
        for (const auto &r : cold_results)
            EXPECT_FALSE(r.fromStore);
        ASSERT_TRUE(store->flush());
    }

    // Fresh store handle (= daemon restart): every cell must come
    // from disk, bit-identical to the plain engine.
    auto store = ResultStore::open(dir.str(), sopts);
    ASSERT_NE(store, nullptr);
    eval::EngineOptions eopts;
    eopts.store = store.get();
    eval::Engine warm(eopts);
    auto warm_results = warm.run(jobs);
    ASSERT_EQ(warm_results.size(), baseline.size());
    uint64_t from_store = 0;
    for (size_t i = 0; i < warm_results.size(); ++i) {
        from_store += warm_results[i].fromStore ? 1 : 0;
        EXPECT_EQ(stripProvenance(eval::evalCellJson(warm_results[i])),
                  stripProvenance(eval::evalCellJson(baseline[i])));
    }
    EXPECT_EQ(from_store, warm_results.size());
    EXPECT_EQ(store->stats().misses, 0u);
}

TEST(Store, EngineStoreHitsTickTheFromStoreCounter)
{
    // A sweep-shaped (sim-only) batch reads through the store like
    // any other: a fresh engine (empty L1) is answered from the L2,
    // and every such answer is counted.
    TempDir dir("simstore");
    harness::Job job = simJob(pl::mp());
    litmus::Histogram direct = harness::runJob(job).hist;

    StoreOptions sopts;
    sopts.syncOnFlush = false;
    auto store = ResultStore::open(dir.str(), sopts);
    ASSERT_NE(store, nullptr);

    eval::EngineOptions eopts;
    eopts.store = store.get();
    {
        eval::Engine engine(eopts);
        auto cold = engine.run({job});
        ASSERT_EQ(cold.size(), 1u);
        EXPECT_FALSE(cold[0].fromStore);
    }
    uint64_t before =
        obs::counter("engine_jobs_from_store_total").value();
    {
        eval::Engine engine(eopts);
        auto warm = engine.run({job});
        ASSERT_EQ(warm.size(), 1u);
        EXPECT_TRUE(warm[0].fromStore);
        EXPECT_EQ(warm[0].hist->counts(), direct.counts());
    }
    if (obs::enabled()) {
        EXPECT_EQ(obs::counter("engine_jobs_from_store_total").value(),
                  before + 1);
    }
}

// ---- protocol -------------------------------------------------------

TEST(Protocol, ParseRejectsMalformedRequests)
{
    std::string error;
    EXPECT_FALSE(parseRequest("not json", &error).has_value());
    EXPECT_FALSE(parseRequest("[1,2]", &error).has_value());
    EXPECT_FALSE(parseRequest("{}", &error).has_value());
    EXPECT_FALSE(
        parseRequest("{\"cmd\":\"frobnicate\"}", &error).has_value());
    EXPECT_NE(error.find("frobnicate"), std::string::npos);
    EXPECT_FALSE(
        parseRequest("{\"cmd\":\"sweep\",\"column\":99}", &error)
            .has_value());
    EXPECT_FALSE(
        parseRequest("{\"cmd\":\"sweep\",\"tests\":[42]}", &error)
            .has_value());
    // Negative counts are errors, not ~2^64 iterations or replays.
    EXPECT_FALSE(parseRequest("{\"cmd\":\"explore\",\"budget\":-5}",
                              &error)
                     .has_value());
    EXPECT_NE(error.find("budget"), std::string::npos);
    EXPECT_FALSE(
        parseRequest("{\"cmd\":\"validate\",\"iterations\":-1}", &error)
            .has_value());
    EXPECT_NE(error.find("iterations"), std::string::npos);
}

TEST(Protocol, AbsentOrZeroIterationsMeanTheDefault)
{
    std::string error;
    for (const char *line :
         {"{\"cmd\":\"validate\"}",
          "{\"cmd\":\"validate\",\"iterations\":0}"}) {
        auto req = parseRequest(line, &error);
        ASSERT_TRUE(req.has_value()) << error;
        EXPECT_EQ(req->iterations, harness::defaultIterations());
    }
    auto req = parseRequest("{\"cmd\":\"validate\",\"iterations\":7}",
                            &error);
    ASSERT_TRUE(req.has_value()) << error;
    EXPECT_EQ(req->iterations, 7u);
}

/** The cache identities and labels of a plan, in job order. */
std::vector<std::pair<uint64_t, std::string>>
planCells(const Request &req)
{
    Plan plan;
    std::string error;
    EXPECT_TRUE(planJobs(req, &plan, &error)) << error;
    std::vector<std::pair<uint64_t, std::string>> out;
    for (const auto &job : plan.jobs)
        out.push_back({job.cacheKey(), job.backend + ":" + job.label});
    return out;
}

TEST(Protocol, FlagsPlanLikeTheEquivalentWireLine)
{
    // The batch commands plan requestFromFlags(...); the daemon plans
    // parseRequest(line). Same flags, same wire fields: same plan.
    struct Case
    {
        std::string cmd;
        std::vector<std::string> tests;
        std::map<std::string, std::string> flags;
        std::string line;
    };
    const std::vector<Case> cases = {
        {"sweep",
         {"mp"},
         {{"chips", "Titan, HD6570"}, {"columns", "9-12"},
          {"iterations", "300"}},
         "{\"cmd\":\"sweep\",\"tests\":[\"mp\"],"
         "\"chips\":[\"Titan\",\"HD6570\"],\"columns\":[9,10,11,12],"
         "\"iterations\":300}"},
        {"validate",
         {"mp", "scenario:cas_spinlock", "sb"},
         {{"exact", "true"}, {"budget", "4096"}, {"iterations", "200"},
          {"models", "ptx,sc"}, {"seed", "9"}, {"column", "12"}},
         "{\"cmd\":\"validate\",\"tests\":[\"mp\","
         "\"scenario:cas_spinlock\",\"sb\"],\"exact\":true,"
         "\"budget\":4096,\"iterations\":200,"
         "\"models\":[\"ptx\",\"sc\"],\"seed\":9,\"column\":12}"},
        {"explore",
         {"mp", "scenario:seqlock,fenced=1"},
         {{"chips", "all"}, {"models", "none"}, {"budget", "1000"}},
         "{\"cmd\":\"explore\",\"tests\":[\"mp\","
         "\"scenario:seqlock,fenced=1\"],\"chips\":[\"all\"],"
         "\"models\":[\"none\"],\"budget\":1000}"},
    };
    for (const auto &c : cases) {
        std::string error;
        auto from_flags =
            requestFromFlags(c.cmd, c.tests, c.flags, &error);
        ASSERT_TRUE(from_flags.has_value()) << c.cmd << ": " << error;
        auto from_wire = parseRequest(c.line, &error);
        ASSERT_TRUE(from_wire.has_value()) << c.cmd << ": " << error;
        auto cells = planCells(*from_flags);
        EXPECT_FALSE(cells.empty()) << c.cmd;
        EXPECT_EQ(cells, planCells(*from_wire)) << c.cmd;
    }
}

TEST(Protocol, FlagsRejectBadValues)
{
    std::string error;
    EXPECT_FALSE(requestFromFlags("explore", {"mp"},
                                  {{"budget", "-5"}}, &error));
    EXPECT_NE(error.find("--budget must be >= 0"), std::string::npos);
    EXPECT_FALSE(requestFromFlags("validate", {"mp"},
                                  {{"iterations", "lots"}}, &error));
    EXPECT_NE(error.find("--iterations expects an integer"),
              std::string::npos);
    EXPECT_FALSE(
        requestFromFlags("sweep", {"mp"}, {{"columns", "0-3"}}, &error));
    EXPECT_FALSE(
        requestFromFlags("validate", {"mp"}, {{"column", "17"}}, &error));
    EXPECT_FALSE(requestFromFlags("validate", {"no/such.litmus"}, {},
                                  &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
    // --iterations 0 is passed through: zero work, not the default.
    auto zero = requestFromFlags("validate", {"mp"},
                                 {{"iterations", "0"}}, &error);
    ASSERT_TRUE(zero.has_value()) << error;
    EXPECT_EQ(zero->iterations, 0u);
}

TEST(Protocol, RenderParseRoundTrip)
{
    Request req;
    req.cmd = "validate";
    req.id = "r7";
    req.tests.push_back({"mp", "", ""});
    req.tests.push_back({"", "", "scenario:spinlock_dot_product"});
    req.chips = {"Titan", "GTX5"};
    req.models = {"ptx", "rmo"};
    req.column = 9;
    req.iterations = 1234;
    req.seed = 42;
    req.budget = 5000;
    req.exact = true;

    std::string error;
    auto parsed = parseRequest(renderRequest(req), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->cmd, req.cmd);
    EXPECT_EQ(parsed->id, req.id);
    ASSERT_EQ(parsed->tests.size(), 2u);
    EXPECT_EQ(parsed->tests[0].name, "mp");
    EXPECT_EQ(parsed->tests[1].spec,
              "scenario:spinlock_dot_product");
    EXPECT_EQ(parsed->chips, req.chips);
    EXPECT_EQ(parsed->models, req.models);
    EXPECT_EQ(parsed->column, 9);
    EXPECT_EQ(parsed->iterations, 1234u);
    EXPECT_EQ(parsed->seed, 42u);
    EXPECT_EQ(parsed->budget, 5000u);
    EXPECT_TRUE(parsed->exact);
}

TEST(Protocol, PlannerMirrorsCliDefaultsAndSurvivesBadInput)
{
    // validate with no chips: the Nvidia result chips, one sim + one
    // model job per chip.
    Request req;
    req.cmd = "validate";
    req.tests.push_back({"mp", "", ""});
    req.iterations = 500;
    Plan plan;
    std::string error;
    ASSERT_TRUE(planJobs(req, &plan, &error)) << error;
    size_t nvidia = 0;
    for (const auto &c : sim::resultChips())
        nvidia += c.isNvidia() ? 1 : 0;
    EXPECT_EQ(plan.jobs.size(), 2 * nvidia);

    // Unknown chip/test/model: an error string, never a dead daemon.
    Request bad = req;
    bad.chips = {"NoSuchChip"};
    Plan ignored;
    EXPECT_FALSE(planJobs(bad, &ignored, &error));
    EXPECT_NE(error.find("NoSuchChip"), std::string::npos);
    bad = req;
    bad.tests = {{"no_such_test", "", ""}};
    EXPECT_FALSE(planJobs(bad, &ignored, &error));
    EXPECT_NE(error.find("no_such_test"), std::string::npos);
    bad = req;
    bad.models = {"no_such_model"};
    EXPECT_FALSE(planJobs(bad, &ignored, &error));

    // "all" expands the chip registry on explore.
    Request exp;
    exp.cmd = "explore";
    exp.tests.push_back({"mp", "", ""});
    exp.chips = {"all"};
    exp.models = {"none"};
    exp.budget = 1 << 16;
    Plan exp_plan;
    ASSERT_TRUE(planJobs(exp, &exp_plan, &error)) << error;
    EXPECT_EQ(exp_plan.jobs.size(), sim::allChips().size());
}

// ---- daemon ---------------------------------------------------------

/** A live daemon on a Unix socket (short path: sockaddr_un caps at
 * ~108 bytes), torn down on destruction. */
struct TestServer
{
    TempDir store_dir;
    std::string socket;
    std::unique_ptr<Server> server;
    std::thread runner;

    explicit TestServer(const std::string &tag)
        : store_dir("srv_" + tag)
    {
        socket = "/tmp/gls_" + tag + "_" +
                 std::to_string(::getpid()) + ".sock";
        ServerOptions opts;
        opts.socketPath = socket;
        opts.storeDir = store_dir.str();
        opts.threads = 2;
        std::string error;
        server = Server::create(opts, &error);
        if (server)
            runner = std::thread([this]() { server->run(); });
    }

    ~TestServer()
    {
        if (server) {
            server->shutdown();
            runner.join();
        }
    }
};

/** Submit and collect the full event stream. */
struct Collected
{
    int exit = -1;
    std::vector<std::string> kinds;
    std::vector<std::string> resultCells; ///< "cell" objects, raw
    int64_t storeResults = -1;
    std::string error;
};

Collected
submitAndCollect(const std::string &socket, const Request &req)
{
    Collected out;
    auto client = Client::connectUnix(socket, &out.error);
    if (!client)
        return out;
    out.exit = client->submit(
        req,
        [&out](const json::Value &event, const std::string &line) {
            std::string kind = event.getString("event");
            out.kinds.push_back(kind);
            if (kind == "result") {
                auto cell = line.find("\"cell\":");
                out.resultCells.push_back(
                    line.substr(cell + 7,
                                line.size() - cell - 8));
            }
            if (kind == "summary")
                out.storeResults =
                    event.getInt("store_results", -1);
        },
        &out.error);
    return out;
}

TEST(Serve, HandshakeCarriesTheAbiStamp)
{
    TestServer ts("hello");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    auto client = Client::connectUnix(ts.socket, &error);
    ASSERT_NE(client, nullptr) << error;
    std::string line;
    ASSERT_TRUE(client->readLine(&line));
    auto hello = json::parse(line);
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->getString("event"), "hello");
    EXPECT_EQ(hello->getString("abi"), gpulitmus::kAbiVersionString);
}

TEST(Serve, OversizedRequestLineIsRefusedAndTheDaemonLivesOn)
{
    TestServer ts("bigline");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    {
        auto client = Client::connectUnix(ts.socket, &error);
        ASSERT_NE(client, nullptr) << error;
        std::string line;
        ASSERT_TRUE(client->readLine(&line)); // hello
        // Twice the cap before any newline: the daemon stops reading,
        // so the tail of this write may fail — only the answer counts.
        (void)client->sendLine(
            std::string(2 * kMaxRequestLineBytes, 'x'));
        ASSERT_TRUE(client->readLine(&line, &error)) << error;
        auto event = json::parse(line);
        ASSERT_TRUE(event.has_value());
        EXPECT_EQ(event->getString("event"), "error");
        // ASSERT: without the cap the connection stays open and the
        // readLine below would block.
        ASSERT_NE(event->getString("message").find("exceeds"),
                  std::string::npos);
        // ... and the connection is closed.
        EXPECT_FALSE(client->readLine(&line));
    }
    // A second client is still served.
    Request req;
    req.cmd = "list";
    req.id = "after-flood";
    Collected got = submitAndCollect(ts.socket, req);
    EXPECT_EQ(got.exit, 0) << got.error;
    EXPECT_NE(std::find(got.kinds.begin(), got.kinds.end(), "list"),
              got.kinds.end());
}

TEST(Serve, UnknownCommandYieldsErrorEventNotDisconnect)
{
    TestServer ts("badcmd");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    auto client = Client::connectUnix(ts.socket, &error);
    ASSERT_NE(client, nullptr) << error;
    std::string line;
    ASSERT_TRUE(client->readLine(&line)); // hello
    ASSERT_TRUE(client->sendLine("{\"cmd\":\"frobnicate\"}"));
    ASSERT_TRUE(client->readLine(&line));
    auto event = json::parse(line);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->getString("event"), "error");

    // The connection survives: a valid request still works.
    Request req;
    req.cmd = "list";
    req.id = "after-error";
    ASSERT_TRUE(client->sendLine(renderRequest(req)));
    ASSERT_TRUE(client->readLine(&line));
    auto list = json::parse(line);
    ASSERT_TRUE(list.has_value());
    EXPECT_EQ(list->getString("event"), "list");
    EXPECT_EQ(list->getString("abi"), gpulitmus::kAbiVersionString);
}

TEST(Serve, ValidateMatchesBatchEngineAndWarmsTheStore)
{
    TestServer ts("warm");
    ASSERT_NE(ts.server, nullptr);

    Request req;
    req.cmd = "validate";
    req.id = "v1";
    req.tests.push_back({"mp", "", ""});
    req.chips = {"Titan"};
    req.iterations = 800;

    // The batch-side truth: the same plan through a plain engine.
    Plan plan;
    std::string error;
    ASSERT_TRUE(planJobs(req, &plan, &error)) << error;
    eval::Engine plain;
    auto baseline = plain.run(plan.jobs);

    Collected cold = submitAndCollect(ts.socket, req);
    EXPECT_EQ(cold.exit, 0) << cold.error;
    EXPECT_EQ(cold.storeResults, 0);
    ASSERT_EQ(cold.resultCells.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(stripProvenance(cold.resultCells[i]),
                  stripProvenance(eval::evalCellJson(baseline[i])));

    // Second submission: answered from the store (the engine L1 also
    // hits, but the summary counts fromStore propagation), still
    // bit-identical.
    Collected warm = submitAndCollect(ts.socket, req);
    EXPECT_EQ(warm.exit, 0) << warm.error;
    ASSERT_EQ(warm.resultCells.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(stripProvenance(warm.resultCells[i]),
                  stripProvenance(cold.resultCells[i]));
}

TEST(Serve, ConcurrentClientsGetIdenticalDeterministicAnswers)
{
    TestServer ts("conc");
    ASSERT_NE(ts.server, nullptr);

    Request req;
    req.cmd = "validate";
    req.id = "c";
    req.tests.push_back({"mp", "", ""});
    req.tests.push_back({"lb", "", ""});
    req.chips = {"Titan", "GTX6"};
    req.iterations = 600;

    constexpr int kClients = 4;
    std::vector<Collected> results(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i]() {
            Request mine = req;
            mine.id = "c" + std::to_string(i);
            results[i] = submitAndCollect(ts.socket, mine);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(results[i].exit, 0) << results[i].error;
        ASSERT_EQ(results[i].resultCells.size(),
                  results[0].resultCells.size());
        for (size_t j = 0; j < results[0].resultCells.size(); ++j)
            EXPECT_EQ(stripProvenance(results[i].resultCells[j]),
                      stripProvenance(results[0].resultCells[j]));
    }
}

TEST(Serve, ScenarioExploreDetectsRacyOutcome)
{
    TestServer ts("scen");
    ASSERT_NE(ts.server, nullptr);

    // The unfenced spinlock scenario reaches its forbidden result
    // (the PR-5 scenario API's headline): the daemon must mirror the
    // batch CLI's exit 2.
    Request req;
    req.cmd = "scenario";
    req.id = "s1";
    req.tests.push_back(
        {"", "", "scenario:spinlock_dot_product,fenced=0"});
    req.chips = {"Titan"};
    req.models = {"none"};
    req.budget = 1 << 18;

    Collected got = submitAndCollect(ts.socket, req);
    EXPECT_EQ(got.exit, 2) << got.error;
}

TEST(Serve, JournalReplayCompletesInterruptedRequests)
{
    TempDir store_dir("journal");
    // A journal entry left by a daemon killed mid-request.
    Request req;
    req.cmd = "validate";
    req.id = "crashed";
    req.tests.push_back({"mp", "", ""});
    req.chips = {"Titan"};
    req.iterations = 500;
    fs::create_directories(store_dir.path / "pending");
    {
        std::ofstream out(store_dir.path / "pending" / "3.req");
        out << renderRequest(req) << "\n";
    }

    ServerOptions opts;
    opts.socketPath = "/tmp/gls_jr_" +
                      std::to_string(::getpid()) + ".sock";
    opts.storeDir = store_dir.str();
    opts.threads = 2;
    std::string error;
    auto server = Server::create(opts, &error);
    ASSERT_NE(server, nullptr) << error;

    // create() replays before serving: the request's cells are in the
    // store and the journal entry is gone.
    EXPECT_EQ(server->stats().replayedRequests, 1u);
    EXPECT_GT(server->store()->size(), 0u);
    EXPECT_TRUE(
        fs::is_empty(store_dir.path / "pending"));
    harness::Job job = simJob(pl::mp(), 500);
    EXPECT_TRUE(server->store()->fetchEval(job).has_value());
}

} // namespace
} // namespace gpulitmus::serve
