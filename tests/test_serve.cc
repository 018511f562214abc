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
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <cctype>
#include <cstring>
#include <functional>
#include <future>
#include <thread>
#include <utility>

#include "common/version.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

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
    harness::Job job;
    job.chip = sim::chip("Titan");
    job.test = test;
    job.iterations = iterations;
    job.seed = seed;
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

TEST(Store, KeysSeedsAndDigestsArePinned)
{
    // Literal identities of four planned jobs. Every store written
    // so far is addressed by these digests and every cached cell by
    // these keys: a change to how a job is rendered or hashed must
    // show up here, not as every user's store silently going cold.
    // (The digests fold in the ABI stamp: a deliberate ABI bump
    // re-pins them.)
    Request validate;
    validate.cmd = "validate";
    validate.tests.push_back({"mp", "", ""});
    validate.chips = {"Titan"};
    validate.models = {"ptx"};
    validate.iterations = 4400;
    validate.exact = true;
    Request explore;
    explore.cmd = "explore";
    explore.tests.push_back({"", "", "scenario:seqlock,fenced=1"});
    explore.chips = {"Titan"};
    explore.models = {"none"};

    Plan mp_plan, seqlock_plan;
    std::string error;
    ASSERT_TRUE(planJobs(validate, &mp_plan, &error)) << error;
    ASSERT_TRUE(planJobs(explore, &seqlock_plan, &error)) << error;
    ASSERT_EQ(mp_plan.jobs.size(), 3u); // sim, mc, ptx
    ASSERT_EQ(seqlock_plan.jobs.size(), 1u);

    struct Pin
    {
        const harness::Job *job;
        const char *backend;
        uint64_t cacheKey, derivedSeed, digestLo, digestHi;
    };
    const Pin pins[] = {
        {&mp_plan.jobs[0], "sim", 0x4a0f3341180a460dULL,
         0x3920a4078817def6ULL, 0x6f1289df81f0247bULL,
         0xd344aca74b3f2937ULL},
        {&mp_plan.jobs[1], "mc", 0xbfd4af97800121b8ULL,
         0xae2bcf56dd535411ULL, 0x29ca3b6cb2bd6adeULL,
         0x0937e4fc199d9515ULL},
        {&mp_plan.jobs[2], "ptx", 0x840c0ff03d46e63cULL,
         0x372d31e197727164ULL, 0x3d1c03e28f8b0777ULL,
         0x71461fbff98ee5c8ULL},
        {&seqlock_plan.jobs[0], "mc", 0x64f22d818c6a73beULL,
         0x6178b7d558a7040dULL, 0x1f89dfd85dcaadcaULL,
         0xa645485e7f7f98fdULL},
    };
    for (const Pin &pin : pins) {
        // The planner's shared rendering and a fresh one agree.
        harness::Job fresh = *pin.job;
        fresh.text.reset();
        for (const harness::Job *job : {pin.job, &std::as_const(fresh)}) {
            SCOPED_TRACE(job->displayLabel() + " " + job->backend +
                         (job->text ? " (shared text)" : " (rendered)"));
            EXPECT_EQ(job->backend, pin.backend);
            EXPECT_EQ(job->cacheKey(), pin.cacheKey);
            EXPECT_EQ(job->derivedSeed(), pin.derivedSeed);
            Digest128 digest = ResultStore::digestFor(*job);
            EXPECT_EQ(digest.lo, pin.digestLo);
            EXPECT_EQ(digest.hi, pin.digestHi);
        }
    }
}

// ---- store: roundtrip and durability --------------------------------

TEST(Store, FlushSyncsOnlyWhatWasAppended)
{
    // The fsync counter is the evidence; this test needs it recording.
    const bool telemetry_was_on = obs::enabled();
    obs::setEnabled(true);
    auto fsyncs = []() {
        return obs::counter("store_fsyncs_total").value();
    };

    TempDir dir("flush");
    harness::Job job = simJob(pl::mp());
    auto store = ResultStore::open(dir.str());
    ASSERT_NE(store, nullptr);
    const uint64_t before = fsyncs();
    ASSERT_TRUE(store->flush()); // nothing appended yet
    EXPECT_EQ(fsyncs(), before);

    store->putEval(job, simulate(job));
    ASSERT_TRUE(store->flush());
    ASSERT_TRUE(store->flush()); // nothing new since the last one
    EXPECT_EQ(fsyncs(), before + 1);

    // A put of a digest the store already holds appends nothing.
    store->putEval(job, simulate(job));
    ASSERT_TRUE(store->flush());
    store.reset(); // closing a synced log syncs nothing either
    EXPECT_EQ(fsyncs(), before + 1);
    obs::setEnabled(telemetry_was_on);
}

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
    // The paper library on every chip, plus one ptx verdict per test.
    TempDir dir("warmrun");
    std::vector<harness::Job> jobs;
    for (const auto &nt : pl::allTests()) {
        harness::Job model = simJob(nt.test);
        model.backend = "ptx";
        for (const auto &chip : sim::allChips()) {
            harness::Job sim = simJob(nt.test);
            sim.chip = chip;
            jobs.push_back(sim);
        }
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

TEST(Store, StoreHitsResolveBeforeAnyWorkerStarts)
{
    // Store lookups happen in Engine::resolve: a batch the store
    // answers completely leaves nothing to compute, so run() starts
    // no worker and reports no progress.
    TempDir dir("resolve");
    std::vector<harness::Job> jobs = {simJob(pl::mp()), simJob(pl::sb())};
    jobs.push_back(jobs[0]); // an in-batch alias
    jobs[2].label = "mp again";
    StoreOptions sopts;
    sopts.syncOnFlush = false;
    auto store = ResultStore::open(dir.str(), sopts);
    ASSERT_NE(store, nullptr);
    eval::EngineOptions eopts;
    eopts.store = store.get();
    std::vector<eval::EvalResult> cold;
    {
        eval::Engine engine(eopts);
        auto batch = engine.resolve(jobs);
        EXPECT_EQ(batch.computing(), 2u);
        cold = engine.run(std::move(batch));
    }

    eval::Engine engine(eopts);
    auto batch = engine.resolve(jobs);
    EXPECT_EQ(batch.computing(), 0u);
    const uint64_t wall_before =
        obs::counter("engine_worker_wall_us_total").value();
    size_t progressed = 0;
    auto warm = engine.run(std::move(batch),
                           [&progressed](size_t, size_t,
                                         const eval::EvalResult &) {
                               ++progressed;
                           });
    EXPECT_EQ(progressed, 0u);
    EXPECT_EQ(obs::counter("engine_worker_wall_us_total").value(),
              wall_before);
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].fromStore);
        EXPECT_EQ(warm[i].label(), cold[i].label());
        EXPECT_EQ(stripProvenance(eval::evalCellJson(warm[i])),
                  stripProvenance(eval::evalCellJson(cold[i])));
    }
    // The store hits joined the in-process cache.
    EXPECT_EQ(engine.resolve(jobs).computing(), 0u);
    EXPECT_EQ(engine.cacheSize(), 2u);
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

TEST(Protocol, AbsentIterationsMeanTheDefaultAndZeroMeansZero)
{
    // 0 is zero work on the wire as on the command line.
    std::string error;
    for (auto [line, want] :
         {std::pair{"{\"cmd\":\"validate\"}", harness::defaultIterations()},
          std::pair{"{\"cmd\":\"validate\",\"iterations\":0}", uint64_t{0}},
          std::pair{"{\"cmd\":\"validate\",\"iterations\":7}", uint64_t{7}}}) {
        auto req = parseRequest(line, &error);
        ASSERT_TRUE(req.has_value()) << error;
        EXPECT_EQ(req->iterations, want) << line;
    }
}

TEST(Protocol, EachCommandAcceptsExactlyTheFieldsItReads)
{
    // field -> a valid wire value and the same value as a flag; the
    // commands that read it.
    struct Field
    {
        std::string name, wire, flag;
        std::vector<std::string> readBy;
    };
    const std::vector<std::string> control = {"hello", "list", "stats",
                                              "metrics", "shutdown"};
    const std::vector<Field> fields = {
        {"chips", "[\"Titan\"]", "Titan",
         {"sweep", "validate", "explore", "scenario"}},
        {"models", "[\"sc\"]", "sc", {"validate", "explore", "scenario"}},
        {"columns", "[3]", "3", {"sweep"}},
        {"column", "3", "3", {"validate", "explore", "scenario"}},
        {"iterations", "7", "7", {"sweep", "validate"}},
        {"seed", "9", "9", {"sweep", "validate"}},
        {"budget", "50", "50", {"validate", "explore", "scenario"}},
        {"exact", "true", "true", {"validate"}},
    };
    for (const std::string cmd :
         {"hello", "list", "stats", "metrics", "shutdown", "sweep",
          "validate", "explore", "scenario"}) {
        const bool jobs = std::find(control.begin(), control.end(), cmd) ==
                          control.end();
        std::string error;
        // id is read by every command, tests by the job commands.
        EXPECT_TRUE(parseRequest("{\"cmd\":\"" + cmd + "\",\"id\":\"x\"}",
                                 &error))
            << cmd << ": " << error;
        EXPECT_EQ(parseRequest("{\"cmd\":\"" + cmd +
                                   "\",\"tests\":[\"mp\"]}",
                               &error)
                      .has_value(),
                  jobs)
            << cmd;
        EXPECT_EQ(requestFromFlags(cmd, {"mp"}, {}, &error).has_value(),
                  jobs)
            << cmd;
        for (const Field &f : fields) {
            const bool reads = std::find(f.readBy.begin(), f.readBy.end(),
                                         cmd) != f.readBy.end();
            error.clear();
            auto wire = parseRequest("{\"cmd\":\"" + cmd + "\",\"" +
                                         f.name + "\":" + f.wire + "}",
                                     &error);
            EXPECT_EQ(wire.has_value(), reads) << cmd << " " << f.name;
            if (!reads) {
                EXPECT_NE(error.find(f.name), std::string::npos) << error;
            }
            error.clear();
            auto flags = requestFromFlags(cmd, {}, {{f.name, f.flag}}, &error);
            EXPECT_EQ(flags.has_value(), reads) << cmd << " --" << f.name;
            if (!reads) {
                EXPECT_NE(error.find("--" + f.name), std::string::npos)
                    << error;
            }
            // Both paths render what the command reads.
            for (const auto &req : {wire, flags}) {
                const std::string line = req ? renderRequest(*req) : "";
                EXPECT_EQ(line.find("\"" + f.name + "\":" + f.wire) !=
                              std::string::npos,
                          reads)
                    << line;
            }
        }
    }
    // Flags outside the schema are the command line's own.
    std::string error;
    EXPECT_TRUE(requestFromFlags("sweep", {"mp"},
                                 {{"jobs", "3"}, {"store", "dir"}}, &error))
        << error;
}

TEST(Protocol, WrongTypesAndUnknownFieldsAreErrorsNamingTheField)
{
    // One wrongly typed value per kind, a misspelt field and malformed
    // tests[] entries: each an error that names the field, never the
    // defaults.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"{\"cmd\":\"sweep\",\"tests\":[\"mp\"],\"chip\":[\"TesC\"]}", "chip"},
        {"{\"cmd\":\"sweep\",\"chips\":\"TesC\"}", "chips"},
        {"{\"cmd\":\"sweep\",\"chips\":[1]}", "chips"},
        {"{\"cmd\":\"sweep\",\"columns\":[\"3\"]}", "columns"},
        {"{\"cmd\":\"sweep\",\"columns\":[17]}", "columns"},
        {"{\"cmd\":\"validate\",\"column\":\"3\"}", "column"},
        {"{\"cmd\":\"validate\",\"column\":0}", "column"},
        {"{\"cmd\":\"sweep\",\"iterations\":\"100\"}", "iterations"},
        {"{\"cmd\":\"sweep\",\"iterations\":100.7}", "iterations"},
        {"{\"cmd\":\"sweep\",\"seed\":1.5}", "seed"},
        {"{\"cmd\":\"validate\",\"exact\":\"true\"}", "exact"},
        {"{\"cmd\":\"stats\",\"id\":7}", "id"},
        {"{\"cmd\":\"sweep\",\"tests\":\"mp\"}", "tests"},
        {"{\"cmd\":\"sweep\",\"tests\":[{\"name\":\"mp\",\"spec\":\"x\"}]}",
         "tests"},
        {"{\"cmd\":\"sweep\",\"tests\":[{\"file\":\"mp\"}]}", "tests"},
        {"{\"cmd\":\"sweep\",\"tests\":[{\"name\":3}]}", "tests"},
        {"{\"cmd\":\"sweep\",\"tests\":[{}]}", "tests"},
    };
    for (const auto &[line, field] : cases) {
        std::string error;
        EXPECT_FALSE(parseRequest(line, &error).has_value()) << line;
        EXPECT_NE(error.find(field), std::string::npos)
            << line << " -> " << error;
    }
    std::string error;
    EXPECT_FALSE(requestFromFlags("sweep", {"mp"}, {{"seed", "1.5"}},
                                  &error));
    EXPECT_NE(error.find("--seed expects an integer"), std::string::npos);
    EXPECT_FALSE(requestFromFlags("frobnicate", {}, {}, &error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos);
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
        // 0 iterations is zero work on both paths.
        {"sweep",
         {"mp"},
         {{"iterations", "0"}, {"columns", "16"}},
         "{\"cmd\":\"sweep\",\"tests\":[\"mp\"],\"columns\":[16],"
         "\"iterations\":0}"},
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

    // One request per command, every field set: the line carries the
    // fields the command reads and no other, and parses back.
    const std::map<std::string, std::vector<std::string>> reads = {
        {"hello", {"id"}},
        {"list", {"id"}},
        {"stats", {"id"}},
        {"metrics", {"id"}},
        {"shutdown", {"id"}},
        {"sweep", {"id", "tests", "chips", "columns", "iterations", "seed"}},
        {"validate",
         {"id", "tests", "chips", "models", "column", "iterations", "seed",
          "budget", "exact"}},
        {"explore", {"id", "tests", "chips", "models", "column", "budget"}},
        {"scenario", {"id", "tests", "chips", "models", "column", "budget"}},
    };
    req.columns = {1, 2};
    for (const auto &[cmd, fields] : reads) {
        req.cmd = cmd;
        const std::string line = renderRequest(req);
        auto doc = json::parse(line, &error);
        ASSERT_TRUE(doc.has_value()) << line;
        std::vector<std::string> got;
        for (const auto &[name, value] : doc->object()) {
            if (name != "cmd")
                got.push_back(name);
        }
        std::vector<std::string> want = fields;
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << line;
        auto back = parseRequest(line, &error);
        ASSERT_TRUE(back.has_value()) << line << ": " << error;
        EXPECT_EQ(renderRequest(*back), line);
    }
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

TEST(Protocol, PlanOrderAndMicroStepFloor)
{
    std::string error;

    // sweep: test outermost, then chip, then column (Tab. 6 indexes
    // its results by this order); every job names the simulator.
    Request req;
    req.cmd = "sweep";
    req.tests = {{"mp", "", ""}, {"sb", "", ""}};
    req.chips = {"Titan", "HD7970"};
    req.columns = {9, 10};
    req.iterations = 100;
    Plan sweep;
    ASSERT_TRUE(planJobs(req, &sweep, &error)) << error;
    const auto &jobs = sweep.jobs;
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].label, "mp");
    EXPECT_EQ(jobs[0].chip.shortName, "Titan");
    EXPECT_EQ(jobs[0].inc.column(), 9);
    EXPECT_EQ(jobs[1].inc.column(), 10);
    EXPECT_EQ(jobs[2].chip.shortName, "HD7970");
    EXPECT_EQ(jobs[4].label, "sb");
    for (const auto &job : jobs) {
        EXPECT_EQ(job.iterations, 100u);
        EXPECT_EQ(job.backend, harness::kSimBackend);
    }

    // validate with exact: per chip the sim cell, its exploration
    // (the budget as its replay count), then each model in request
    // order.
    req.cmd = "validate";
    req.tests = {{"mp", "", ""}};
    req.chips = {"Titan", "TesC"};
    req.models = {"sc", "ptx"};
    req.budget = 1 << 16;
    req.exact = true;
    Plan validate;
    ASSERT_TRUE(planJobs(req, &validate, &error)) << error;
    ASSERT_EQ(validate.jobs.size(), 8u);
    const char *backends[] = {harness::kSimBackend, harness::kMcBackend,
                              "sc", "ptx"};
    for (size_t i = 0; i < validate.jobs.size(); ++i) {
        const harness::Job &job = validate.jobs[i];
        EXPECT_EQ(job.chip.shortName, i < 4 ? "Titan" : "TesC") << i;
        EXPECT_EQ(job.backend, backends[i % 4]) << i;
        if (job.isMc()) {
            EXPECT_EQ(job.iterations, 1u << 16);
        }
    }

    // Scenarios: a spin-loop scenario raises its jobs' micro-step cap,
    // a straight-line one keeps the default; labels are the
    // parameterised test name.
    Request scen;
    scen.cmd = "sweep";
    scen.tests = {{"", "", "scenario:spinlock_dot_product"},
                  {"", "", "scenario:seqlock"}};
    scen.chips = {"Titan", "TesC"};
    scen.columns = {16};
    scen.iterations = 500;
    Plan scenarios;
    ASSERT_TRUE(planJobs(scen, &scenarios, &error)) << error;
    ASSERT_EQ(scenarios.jobs.size(), 4u);
    EXPECT_EQ(scenarios.jobs[0].test.name, "spinlock_dot_product+t2");
    EXPECT_EQ(scenarios.jobs[0].chip.shortName, "Titan");
    EXPECT_EQ(scenarios.jobs[1].chip.shortName, "TesC");
    EXPECT_EQ(scenarios.jobs[2].test.name, "seqlock");
    EXPECT_EQ(scenarios.jobs[0].maxMicroSteps, 20000);
    EXPECT_EQ(scenarios.jobs[1].maxMicroSteps, 20000);
    EXPECT_EQ(scenarios.jobs[2].maxMicroSteps, 4000);
    EXPECT_EQ(scenarios.jobs[0].label, "spinlock_dot_product+t2");
    EXPECT_EQ(scenarios.jobs[0].displayLabel(),
              "spinlock_dot_product+t2");
}

// ---- planner memo ---------------------------------------------------

/** The corpus sources, each made unique to this process and `tag` by a
 * trailing comment, so the memo has never seen them. */
std::vector<std::string>
freshCorpusSources(const std::string &tag)
{
    std::vector<std::string> out;
    for (const auto &entry : fs::directory_iterator(
             std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests")) {
        std::string error;
        auto spec = testSpecFor(entry.path().string(), &error);
        EXPECT_TRUE(spec.has_value()) << error;
        if (spec)
            out.push_back(spec->source + "\n(* " + tag + " " +
                          std::to_string(::getpid()) + " *)\n");
    }
    return out;
}

/** Every identity a planned job carries into the cache and the store. */
struct JobIdentity
{
    std::string label, backend, chip;
    uint64_t cacheKey, derivedSeed;
    Digest128 digest;

    bool operator==(const JobIdentity &) const = default;
};

std::vector<JobIdentity>
identities(const Plan &plan)
{
    std::vector<JobIdentity> out;
    for (const auto &job : plan.jobs)
        out.push_back({job.label, job.backend, job.chip.shortName,
                       job.cacheKey(), job.derivedSeed(),
                       ResultStore::digestFor(job)});
    return out;
}

TEST(Protocol, MemoHitPlanEqualsAFreshPlan)
{
    const bool telemetry_was_on = obs::enabled();
    obs::setEnabled(true);
    Request validate;
    validate.cmd = "validate";
    validate.chips = {"all"};
    validate.models = {"ptx", "sc"};
    validate.iterations = 300;
    validate.exact = true;
    Request explore;
    explore.cmd = "explore";
    explore.chips = {"all"};
    explore.budget = 5000;
    Request sweep;
    sweep.cmd = "sweep";
    sweep.chips = {"Titan", "HD6570", "HD7970"};
    sweep.columns = {3, 16};

    for (Request *req : {&validate, &explore, &sweep}) {
        SCOPED_TRACE(req->cmd);
        // Sources no plan has seen, so the first plan resolves,
        // renders and compiles everything afresh. dlb-lb miscompiles
        // on HD6570 (Fig. 8's n/a cell).
        const std::string tag = "memo-equal-" + req->cmd;
        auto sources = freshCorpusSources(tag);
        sources.push_back(pl::dlbLb(false).str() + "\n(* " + tag + " " +
                          std::to_string(::getpid()) + " *)\n");
        for (const auto &source : sources)
            req->tests.push_back({"", source, ""});

        auto &hits = obs::counter("serve_test_cache_hits_total");
        auto &misses = obs::counter("serve_test_cache_misses_total");
        Plan fresh, memoised;
        std::string error;
        uint64_t hits_before = hits.value();
        uint64_t misses_before = misses.value();
        ASSERT_TRUE(planJobs(*req, &fresh, &error)) << error;
        EXPECT_EQ(misses.value() - misses_before, sources.size());
        EXPECT_EQ(hits.value(), hits_before);
        hits_before = hits.value();
        misses_before = misses.value();
        ASSERT_TRUE(planJobs(*req, &memoised, &error)) << error;
        EXPECT_EQ(hits.value() - hits_before, sources.size());
        EXPECT_EQ(misses.value(), misses_before);

        EXPECT_EQ(identities(memoised), identities(fresh));
        for (size_t i = 0; i < fresh.jobs.size(); ++i)
            EXPECT_EQ(memoised.jobs[i].test.str(),
                      fresh.jobs[i].test.str());
        EXPECT_EQ(memoised.notes, fresh.notes);
        EXPECT_EQ(memoised.skipped, fresh.skipped);
        EXPECT_EQ(memoised.outOfScope, fresh.outOfScope);
        bool hd7970_note = false;
        for (const auto &note : fresh.notes)
            hd7970_note |= note.find("(HD7970)") != std::string::npos;
        EXPECT_TRUE(hd7970_note);
        EXPECT_NE(std::find(fresh.skipped.begin(), fresh.skipped.end(),
                            "dlb-lb on HD6570"),
                  fresh.skipped.end());
    }
    obs::setEnabled(telemetry_was_on);
}

TEST(Protocol, MemoStaysWithinItsCaps)
{
    const std::string mp = pl::mp().str();
    auto plan_source = [](const std::string &source) {
        Request req;
        req.cmd = "sweep";
        req.tests.push_back({"", source, ""});
        req.chips = {"Titan"};
        req.columns = {16};
        req.iterations = 10;
        Plan plan;
        std::string error;
        EXPECT_TRUE(planJobs(req, &plan, &error)) << error;
        EXPECT_EQ(plan.jobs.size(), 1u);
        TestMemoStats stats = testMemoStats();
        EXPECT_LE(stats.entries, kTestMemoMaxEntries);
        EXPECT_LE(stats.keyBytes, kTestMemoMaxKeyBytes);
    };
    // More unique sources than the entry cap...
    for (size_t i = 0; i < kTestMemoMaxEntries + 20; ++i)
        plan_source(mp + "(* caps " + std::to_string(i) + " *)\n");
    EXPECT_GT(testMemoStats().entries, 0u);
    // ... more key bytes than the byte cap, and one source over it.
    const std::string padding(kTestMemoMaxKeyBytes / 3, ' ');
    for (int i = 0; i < 5; ++i)
        plan_source(mp + "(* caps-big " + std::to_string(i) + padding +
                    " *)\n");
    plan_source(mp + "(* caps-huge" + std::string(kTestMemoMaxKeyBytes, ' ') +
                " *)\n");
}

TEST(Protocol, ConcurrentPlannersShareTheMemo)
{
    // Fresh sources on AMD chips: the threads race to resolve them and
    // to make each chip's compilation on first use.
    auto sources = freshCorpusSources("memo-threads");
    Request req;
    req.cmd = "explore";
    req.chips = {"all"};
    req.models = {"ptx"};
    for (const auto &source : sources)
        req.tests.push_back({"", source, ""});

    constexpr int kThreads = 4;
    std::vector<Plan> plans(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            std::string error;
            EXPECT_TRUE(planJobs(req, &plans[t], &error)) << error;
        });
    }
    for (auto &t : threads)
        t.join();
    Plan after;
    std::string error;
    ASSERT_TRUE(planJobs(req, &after, &error)) << error;
    for (const Plan &plan : plans) {
        EXPECT_EQ(identities(plan), identities(after));
        EXPECT_EQ(plan.notes, after.notes);
    }
}

// ---- daemon ---------------------------------------------------------

/** A live daemon on a Unix socket (short path: sockaddr_un caps at
 * ~108 bytes) over the store in `store_dir`, torn down on
 * destruction. */
struct LiveDaemon
{
    std::string socket;
    std::unique_ptr<Server> server;
    std::thread runner;

    LiveDaemon(const std::string &tag, const std::string &store_dir)
    {
        socket = "/tmp/gls_" + tag + "_" +
                 std::to_string(::getpid()) + ".sock";
        ServerOptions opts;
        opts.socketPath = socket;
        opts.storeDir = store_dir;
        opts.threads = 2;
        std::string error;
        server = Server::create(opts, &error);
        if (server)
            runner = std::thread([this]() { server->run(); });
    }

    ~LiveDaemon()
    {
        if (server) {
            server->shutdown();
            runner.join();
        }
    }
};

/** A live daemon over a fresh store directory. */
struct TestServer : TempDir, LiveDaemon
{
    explicit TestServer(const std::string &tag)
        : TempDir("srv_" + tag), LiveDaemon(tag, TempDir::str())
    {
    }
};

/** Submit and collect the full event stream. */
struct Collected
{
    int exit = -1;
    std::vector<std::string> kinds;
    std::vector<std::string> resultCells; ///< "cell" objects, raw
    /** `total` of each per-job (non-heartbeat) progress event. */
    std::vector<int64_t> progressTotals;
    int64_t storeResults = -1;
    std::string summary; ///< the summary line, raw
    std::string error;
};

/** `onEvent`, when set, sees each event kind as it arrives. */
Collected
submitAndCollect(const std::string &socket, const Request &req,
                 std::function<void(const std::string &)> onEvent = {})
{
    Collected out;
    auto client = Client::connectUnix(socket, &out.error);
    if (!client)
        return out;
    out.exit = client->submit(
        req,
        [&out, &onEvent](const json::Value &event,
                         const std::string &line) {
            std::string kind = event.getString("event");
            if (onEvent)
                onEvent(kind);
            out.kinds.push_back(kind);
            if (kind == "progress" && !event.getBool("heartbeat", false))
                out.progressTotals.push_back(event.getInt("total", -1));
            if (kind == "summary")
                out.summary = line;
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

TEST(Serve, HelloCommandEndsWithDone)
{
    TestServer ts("hellocmd");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    auto client = Client::connectUnix(ts.socket, &error);
    ASSERT_NE(client, nullptr) << error;
    Request req;
    req.cmd = "hello";
    req.id = "greet";
    // Submit on a second thread and bound the wait, so that a reply
    // without `done` fails here instead of hanging the suite.
    int exit = -2;
    std::vector<std::string> kinds;
    std::promise<void> finished;
    std::future<void> ended = finished.get_future();
    std::thread submitter([&]() {
        exit = client->submit(
            req,
            [&kinds](const json::Value &event, const std::string &) {
                kinds.push_back(event.getString("event"));
            },
            &error);
        finished.set_value();
    });
    const bool done = ended.wait_for(std::chrono::seconds(10)) ==
                      std::future_status::ready;
    if (!done)
        ts.server->shutdown(); // closes the connection under submit
    submitter.join();
    ASSERT_TRUE(done) << "the hello reply never ended with done";
    EXPECT_EQ(exit, 0) << error;
    // The connection's greeting, the answer, then the terminal event.
    EXPECT_EQ(kinds,
              (std::vector<std::string>{"hello", "hello", "done"}));
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

TEST(Serve, TestOverTheRegisterLimitIsAnErrorNotADeadDaemon)
{
    // 70 registers in one thread used to reach the machine's compile
    // step and exit the daemon; the parser now refuses the test.
    std::string source = "GPU_PTX many_regs\nT0 ;\n";
    for (int i = 0; i < 70; ++i)
        source += "mov.s32 r" + std::to_string(i) + ",1 ;\n";
    source += "exists (0:r0=1)\n";

    TestServer ts("regs");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    {
        auto client = Client::connectUnix(ts.socket, &error);
        ASSERT_NE(client, nullptr) << error;
        std::string line;
        ASSERT_TRUE(client->readLine(&line)); // hello
        Request req;
        req.cmd = "sweep";
        req.id = "many-regs";
        req.tests.push_back({"", source, ""});
        req.chips = {"Titan"};
        req.iterations = 10;
        ASSERT_TRUE(client->sendLine(renderRequest(req)));
        ASSERT_TRUE(client->readLine(&line, &error)) << error;
        auto event = json::parse(line);
        ASSERT_TRUE(event.has_value());
        EXPECT_EQ(event->getString("event"), "error");
        EXPECT_NE(event->getString("message").find("70 registers"),
                  std::string::npos)
            << line;
    }
    // A second client is still served.
    Request req;
    req.cmd = "list";
    req.id = "after-many-regs";
    Collected got = submitAndCollect(ts.socket, req);
    EXPECT_EQ(got.exit, 0) << got.error;
    EXPECT_NE(std::find(got.kinds.begin(), got.kinds.end(), "list"),
              got.kinds.end());
}

TEST(Serve, InconsistentInlineTestIsAnErrorNotADeadDaemon)
{
    // A register init for a thread the test does not have used to
    // reach a fatal in Test::validate and exit the daemon; the parser
    // now returns it as a parse error.
    const std::string source = "GPU_PTX ghost_thread\n{5:r0=1;}\n"
                               "T0 ;\nld.cg r1,[x] ;\n"
                               "exists (0:r1=0)\n";

    TestServer ts("ghost");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    {
        auto client = Client::connectUnix(ts.socket, &error);
        ASSERT_NE(client, nullptr) << error;
        std::string line;
        ASSERT_TRUE(client->readLine(&line)); // hello
        Request req;
        req.cmd = "explore";
        req.id = "ghost-thread";
        req.tests.push_back({"", source, ""});
        req.chips = {"Titan"};
        ASSERT_TRUE(client->sendLine(renderRequest(req)));
        ASSERT_TRUE(client->readLine(&line, &error)) << error;
        auto event = json::parse(line);
        ASSERT_TRUE(event.has_value());
        EXPECT_EQ(event->getString("event"), "error");
        EXPECT_NE(event->getString("message").find("bad thread 5"),
                  std::string::npos)
            << line;
    }
    // A second client is still served.
    Request req;
    req.cmd = "list";
    req.id = "after-ghost-thread";
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

TEST(Serve, HostileRequestsGetErrorsNamingTheFieldAndTheDaemonLivesOn)
{
    TestServer ts("hostile");
    ASSERT_NE(ts.server, nullptr);
    std::string error;
    auto client = Client::connectUnix(ts.socket, &error);
    ASSERT_NE(client, nullptr) << error;
    std::string line;
    ASSERT_TRUE(client->readLine(&line)); // hello
    // A misspelt field, a wrongly typed one and a field the command
    // does not read: each would have run the defaults. The error event
    // echoes the line's id when it is a string, so a client pipelining
    // requests can tell which one failed.
    struct Hostile
    {
        std::string request, field, id;
    };
    const std::vector<Hostile> hostile = {
        {"{\"cmd\":\"sweep\",\"id\":\"r9\",\"tests\":[{\"name\":\"mp\"}],"
         "\"chip\":[\"TesC\"],\"columns\":[16],\"iterations\":100}",
         "chip", "r9"},
        {"{\"cmd\":\"sweep\",\"tests\":[\"mp\"],\"iterations\":\"100\"}",
         "iterations", ""},
        {"{\"cmd\":\"validate\",\"tests\":[\"mp\"],\"columns\":[3]}",
         "columns", ""},
        {"{\"cmd\":\"sweep\",\"id\":7,\"tests\":[\"mp\"]}", "id", ""},
        {"{\"cmd\":\"sweep\",\"id\":\"r10\",\"tests\":[\"mp\"]", "",
         ""},
    };
    for (const auto &[request, field, id] : hostile) {
        ASSERT_TRUE(client->sendLine(request));
        ASSERT_TRUE(client->readLine(&line));
        auto event = json::parse(line);
        ASSERT_TRUE(event.has_value()) << line;
        EXPECT_EQ(event->getString("event"), "error") << line;
        EXPECT_NE(event->getString("message").find(field),
                  std::string::npos)
            << line;
        EXPECT_EQ(event->getString("id", "<absent>"),
                  id.empty() ? "<absent>" : id)
            << line;
    }
    // The same socket still answers a valid request.
    ASSERT_TRUE(client->sendLine(
        "{\"cmd\":\"sweep\",\"id\":\"ok\",\"tests\":[\"mp\"],"
        "\"chips\":[\"TesC\"],\"columns\":[16],\"iterations\":100}"));
    std::string last;
    while (client->readLine(&line)) {
        last = json::parse(line)->getString("event");
        if (last == "done" || last == "error")
            break;
    }
    EXPECT_EQ(last, "done");
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

/** The three costs only a request that computes may pay: journal
 * entries written, heartbeat monitors started, store fsyncs. */
std::array<uint64_t, 3>
computeCosts()
{
    return {obs::counter("serve_journal_writes_total").value(),
            obs::counter("serve_heartbeat_monitors_total").value(),
            obs::counter("store_fsyncs_total").value()};
}

std::array<uint64_t, 3>
computeCostsSince(const std::array<uint64_t, 3> &before)
{
    auto now = computeCosts();
    return {now[0] - before[0], now[1] - before[1], now[2] - before[2]};
}

/** A summary line minus `store_results`, the one provenance tally. */
std::string
withoutStoreResults(std::string summary)
{
    auto at = summary.find(",\"store_results\":");
    if (at != std::string::npos)
        summary.erase(at, summary.find(',', at + 1) - at);
    return summary;
}

TEST(Serve, MalformedSourceErrorIsTheSameAroundAMemoisedSource)
{
    TestServer ts("badsrc");
    ASSERT_NE(ts.server, nullptr);
    const std::string good = freshCorpusSources("badsrc").front();
    std::string bad = good;
    bad.replace(bad.find("exists"), 6, "exists ((");

    auto submit = [&ts](const std::string &source) {
        Request req;
        req.cmd = "sweep";
        req.id = "src";
        req.tests.push_back({"", source, ""});
        req.chips = {"Titan"};
        req.columns = {16};
        req.iterations = 50;
        return submitAndCollect(ts.socket, req);
    };
    Collected before = submit(bad);
    EXPECT_EQ(before.exit, 1);
    EXPECT_NE(before.error.find("tests[0]: cannot parse inline test"),
              std::string::npos)
        << before.error;
    Collected ok = submit(good);
    EXPECT_EQ(ok.exit, 0) << ok.error;
    Collected cached = submit(good);
    EXPECT_EQ(cached.exit, 0) << cached.error;
    Collected after = submit(bad);
    EXPECT_EQ(after.exit, 1);
    EXPECT_EQ(after.error, before.error);
    std::string plan_error;
    Plan plan;
    Request req;
    req.cmd = "sweep";
    req.tests.push_back({"", bad, ""});
    EXPECT_FALSE(planJobs(req, &plan, &plan_error));
    EXPECT_EQ(plan_error, before.error);
}

TEST(Serve, AnswersCorrectlyAfterTheMemoOverflows)
{
    TestServer ts("overflow");
    ASSERT_NE(ts.server, nullptr);
    const std::string mp = pl::mp().str();
    auto request = [](const std::string &source) {
        Request req;
        req.cmd = "validate";
        req.id = "o";
        req.tests.push_back({"", source, ""});
        req.chips = {"Titan", "GTX5"};
        req.iterations = 300;
        return req;
    };
    const Request first = request(mp + "(* overflow first *)\n");
    Collected cold = submitAndCollect(ts.socket, first);
    ASSERT_EQ(cold.exit, 0) << cold.error;
    // Overflow the memo past its entry cap, over the socket.
    for (size_t i = 0; i <= kTestMemoMaxEntries; i += 16) {
        Request req = request(mp);
        req.tests.clear();
        for (size_t k = i; k < i + 16; ++k)
            req.tests.push_back(
                {"", mp + "(* overflow " + std::to_string(k) + " *)\n",
                 ""});
        Collected got = submitAndCollect(ts.socket, req);
        ASSERT_EQ(got.exit, 0) << got.error;
    }
    EXPECT_LE(testMemoStats().entries, kTestMemoMaxEntries);

    // The first request again, and the batch engine's answer to it.
    Collected again = submitAndCollect(ts.socket, first);
    ASSERT_EQ(again.exit, 0) << again.error;
    Plan plan;
    std::string error;
    ASSERT_TRUE(planJobs(first, &plan, &error)) << error;
    auto baseline = eval::Engine().run(plan.jobs);
    ASSERT_EQ(again.resultCells.size(), baseline.size());
    ASSERT_EQ(cold.resultCells.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
        const std::string want =
            stripProvenance(eval::evalCellJson(baseline[i]));
        EXPECT_EQ(stripProvenance(again.resultCells[i]), want);
        EXPECT_EQ(stripProvenance(cold.resultCells[i]), want);
    }
}

TEST(Serve, WarmRequestsWriteNoJournalStartNoMonitorAndSyncNothing)
{
    // The counters are the evidence; this test needs them recording.
    const bool telemetry_was_on = obs::enabled();
    obs::setEnabled(true);

    TempDir store_dir("paid");
    const fs::path pending = store_dir.path / "pending";
    auto pending_entries = [&pending]() {
        return std::distance(fs::directory_iterator(pending),
                             fs::directory_iterator());
    };
    Request req;
    req.cmd = "validate";
    req.id = "w";
    req.tests = {{"mp", "", ""}, {"sb", "", ""}};
    req.chips = {"Titan"};
    req.models = {"ptx"};
    req.iterations = 2000;
    const std::array<uint64_t, 3> once{1, 1, 1}, none{0, 0, 0};

    Collected cold, cached, stored;
    {
        LiveDaemon daemon("paid1", store_dir.str());
        ASSERT_NE(daemon.server, nullptr);
        auto before = computeCosts();
        long pending_at_first_progress = -1;
        cold = submitAndCollect(
            daemon.socket, req, [&](const std::string &kind) {
                if (kind == "progress" && pending_at_first_progress < 0)
                    pending_at_first_progress = pending_entries();
            });
        EXPECT_EQ(cold.exit, 0) << cold.error;
        EXPECT_EQ(pending_at_first_progress, 1);
        EXPECT_EQ(pending_entries(), 0);
        EXPECT_EQ(computeCostsSince(before), once);
        // All four jobs (sim and ptx for each test) compute, and the
        // per-job progress events count against those four.
        EXPECT_EQ(cold.progressTotals, std::vector<int64_t>(4, 4));

        before = computeCosts();
        cached = submitAndCollect(daemon.socket, req);
        EXPECT_EQ(computeCostsSince(before), none);
    }
    {
        // A restart on the same store: its answers come from disk.
        LiveDaemon daemon("paid2", store_dir.str());
        ASSERT_NE(daemon.server, nullptr);
        auto before = computeCosts();
        stored = submitAndCollect(daemon.socket, req);
        EXPECT_EQ(computeCostsSince(before), none);
        EXPECT_EQ(stored.storeResults, 4);

        // Half answered, half computed: only the computed half
        // reports progress, and the request pays once.
        Request mixed = req;
        mixed.tests.push_back({"lb", "", ""});
        before = computeCosts();
        Collected partial = submitAndCollect(daemon.socket, mixed);
        EXPECT_EQ(partial.exit, 0) << partial.error;
        EXPECT_EQ(partial.storeResults, 4);
        EXPECT_EQ(partial.progressTotals, std::vector<int64_t>(2, 2));
        EXPECT_EQ(computeCostsSince(before), once);
        EXPECT_EQ(pending_entries(), 0);
    }

    // A fully answered request streams no progress at all.
    const std::vector<std::string> answered = {
        "hello",  "accepted", "result", "result",
        "result", "result",   "summary", "done"};
    for (const Collected *warm : {&cached, &stored}) {
        EXPECT_EQ(warm->exit, 0) << warm->error;
        EXPECT_EQ(warm->kinds, answered);
        ASSERT_EQ(warm->resultCells.size(), cold.resultCells.size());
        for (size_t i = 0; i < cold.resultCells.size(); ++i)
            EXPECT_EQ(stripProvenance(warm->resultCells[i]),
                      stripProvenance(cold.resultCells[i]));
        EXPECT_EQ(withoutStoreResults(warm->summary),
                  withoutStoreResults(cold.summary));
    }
    obs::setEnabled(telemetry_was_on);
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
