/**
 * @file
 * Tests for the harness: reproducibility, histogram integrity,
 * iteration plumbing, and the incidence ordering the incantations
 * induce (Tab. 6's qualitative claims).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "harness/campaign.h"
#include "litmus/library.h"

namespace gpulitmus::harness {
namespace {

namespace pl = litmus::paperlib;

TEST(Runner, HistogramTotalsMatchIterations)
{
    RunConfig cfg;
    cfg.iterations = 500;
    litmus::Histogram h = run(sim::chip("Titan"), pl::mp(), cfg);
    EXPECT_EQ(h.total(), 500u);
    uint64_t sum = 0;
    for (const auto &[key, count] : h.counts())
        sum += count;
    EXPECT_EQ(sum, 500u);
}

TEST(Runner, MachineReuseAcrossOptionsIsBitIdentical)
{
    // runJob serves every (chip, test) pair from one thread-local
    // compiled machine, re-parameterised per job via setOptions.
    // Interleaving columns and chips must leave each cell
    // bit-identical to what a freshly compiled machine computes.
    RunConfig c16;
    c16.iterations = 3000;
    c16.seed = 12345;
    c16.inc = sim::Incantations::fromColumn(16);
    RunConfig c1 = c16;
    c1.inc = sim::Incantations::fromColumn(1);

    litmus::Histogram first = run(sim::chip("Titan"), pl::mp(), c16);
    // Reconfigure the cached machine (same chip/test, column 1) and
    // touch a second chip and a second test in between.
    run(sim::chip("Titan"), pl::mp(), c1);
    run(sim::chip("GTX5"), pl::mp(), c16);
    run(sim::chip("Titan"), pl::sb(), c16);
    litmus::Histogram again = run(sim::chip("Titan"), pl::mp(), c16);
    EXPECT_EQ(first.counts(), again.counts());
    EXPECT_EQ(first.observed(), again.observed());
}

TEST(Runner, ReproducibleWithSameSeed)
{
    RunConfig cfg;
    cfg.iterations = 2000;
    litmus::Histogram a = run(sim::chip("TesC"), pl::sb(), cfg);
    litmus::Histogram b = run(sim::chip("TesC"), pl::sb(), cfg);
    EXPECT_EQ(a.observed(), b.observed());
    EXPECT_EQ(a.counts(), b.counts());
}

TEST(Runner, DifferentSeedsDiffer)
{
    RunConfig a_cfg, b_cfg;
    a_cfg.iterations = b_cfg.iterations = 5000;
    b_cfg.seed = a_cfg.seed + 1;
    litmus::Histogram a = run(sim::chip("Titan"), pl::sb(), a_cfg);
    litmus::Histogram b = run(sim::chip("Titan"), pl::sb(), b_cfg);
    // Weak counts fluctuate between seeds (they are samples).
    EXPECT_NE(a.counts(), b.counts());
}

TEST(Runner, ObservePer100kNormalises)
{
    RunConfig cfg;
    cfg.iterations = 1000;
    // A test whose condition always holds: final x=1 after one store.
    litmus::Test t = litmus::TestBuilder("always")
                         .global("x", 0)
                         .thread("st.cg [x],1")
                         .intraCta()
                         .exists("x=1")
                         .build();
    EXPECT_EQ(observePer100k(sim::chip("Titan"), t, cfg), 100000u);
}

TEST(Runner, DefaultIterationsFromEnv)
{
    setenv("GPULITMUS_ITERS", "1234", 1);
    EXPECT_EQ(defaultIterations(), 1234u);
    setenv("GPULITMUS_ITERS", "bogus", 1);
    EXPECT_EQ(defaultIterations(), 100000u);
    unsetenv("GPULITMUS_ITERS");
    EXPECT_EQ(defaultIterations(), 100000u);
}

TEST(Runner, MpAllOutcomesAppear)
{
    RunConfig cfg;
    cfg.iterations = 20000;
    litmus::Histogram h = run(sim::chip("Titan"), pl::mp(), cfg);
    // All four r1/r2 combinations should be reachable under stress.
    EXPECT_EQ(h.counts().size(), 4u);
}

TEST(Incantations, StressIsRequiredOnNvidia)
{
    RunConfig with, without;
    with.iterations = without.iterations = 8000;
    with.inc = sim::Incantations::all();
    without.inc = sim::Incantations::all();
    without.inc.memoryStress = false;
    without.inc.bankConflicts = false;
    EXPECT_GT(run(sim::chip("Titan"), pl::sb(), with).observed(), 0u);
    EXPECT_EQ(run(sim::chip("Titan"), pl::sb(), without).observed(),
              0u);
}

TEST(Incantations, AmdWeakWithoutStress)
{
    RunConfig cfg;
    cfg.iterations = 8000;
    cfg.inc = sim::Incantations::none();
    EXPECT_GT(run(sim::chip("HD7970"), pl::lb(), cfg).observed(), 0u);
}

TEST(Incantations, SyncIncreasesInterCtaIncidence)
{
    RunConfig base, sync;
    base.iterations = sync.iterations = 30000;
    base.inc = sim::Incantations::fromColumn(9);  // stress only
    sync.inc = sim::Incantations::fromColumn(11); // stress + sync
    uint64_t without_sync =
        run(sim::chip("Titan"), pl::sb(), base).observed();
    uint64_t with_sync =
        run(sim::chip("Titan"), pl::sb(), sync).observed();
    EXPECT_GT(with_sync, without_sync);
}

TEST(Incantations, BankConflictsNeededForCoRRWithoutStress)
{
    RunConfig bank_rand, rand_only;
    bank_rand.iterations = rand_only.iterations = 20000;
    bank_rand.inc = sim::Incantations::fromColumn(6); // bank + rand
    rand_only.inc = sim::Incantations::fromColumn(2); // rand alone
    EXPECT_GT(
        run(sim::chip("Titan"), pl::coRR(), bank_rand).observed(),
        0u);
    EXPECT_EQ(
        run(sim::chip("Titan"), pl::coRR(), rand_only).observed(),
        0u);
}

TEST(Incantations, BankConflictsDampenInterCtaOnNvidia)
{
    RunConfig c12, c16;
    c12.iterations = c16.iterations = 40000;
    c12.inc = sim::Incantations::fromColumn(12);
    c16.inc = sim::Incantations::fromColumn(16);
    uint64_t without_bank =
        run(sim::chip("Titan"), pl::lb(), c12).observed();
    uint64_t with_bank =
        run(sim::chip("Titan"), pl::lb(), c16).observed();
    EXPECT_GT(without_bank, with_bank);
}

// ---- campaign engine ------------------------------------------------

TEST(Campaign, GridIsRowMajorTestChipColumn)
{
    auto jobs = Campaign()
                    .iterations(100)
                    .test(pl::mp(), "mp")
                    .test(pl::sb(), "sb")
                    .overChips(std::vector<std::string>{"Titan",
                                                        "HD7970"})
                    .overColumns(9, 10)
                    .jobs();
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].label, "mp");
    EXPECT_EQ(jobs[0].chip.shortName, "Titan");
    EXPECT_EQ(jobs[0].inc.column(), 9);
    EXPECT_EQ(jobs[1].inc.column(), 10);
    EXPECT_EQ(jobs[2].chip.shortName, "HD7970");
    EXPECT_EQ(jobs[4].label, "sb");
    for (const auto &job : jobs)
        EXPECT_EQ(job.iterations, 100u);
}

TEST(Campaign, OverBackendsIsTheInnermostAxisAndDefaultsToSim)
{
    // Default: every grid job names the simulator.
    for (const auto &job :
         Campaign().iterations(50).test(pl::mp(), "mp").jobs())
        EXPECT_EQ(job.backend, kSimBackend);

    auto jobs = Campaign()
                    .iterations(50)
                    .test(pl::mp(), "mp")
                    .overChips(std::vector<std::string>{"Titan",
                                                        "TesC"})
                    .overBackends({kSimBackend, "ptx"})
                    .jobs();
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].chip.shortName, "Titan");
    EXPECT_EQ(jobs[0].backend, kSimBackend);
    EXPECT_EQ(jobs[1].chip.shortName, "Titan");
    EXPECT_EQ(jobs[1].backend, "ptx");
    EXPECT_EQ(jobs[2].chip.shortName, "TesC");
    EXPECT_EQ(jobs[2].backend, kSimBackend);
    EXPECT_EQ(jobs[3].backend, "ptx");
}

TEST(Campaign, JobKeysDistinguishChipsAndColumns)
{
    RunConfig cfg;
    Job a = Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    Job b = Job::fromConfig(sim::chip("TesC"), pl::mp(), cfg);
    Job c = a;
    c.inc = sim::Incantations::fromColumn(9);
    Job d = a;
    d.seed += 1;
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_NE(a.key(), d.key());
    // Iterations affect the cache identity but not the RNG stream.
    Job e = a;
    e.iterations *= 2;
    EXPECT_EQ(a.key(), e.key());
    EXPECT_EQ(a.derivedSeed(), e.derivedSeed());
    EXPECT_NE(a.cacheKey(), e.cacheKey());
}

TEST(Campaign, DeterministicAcrossThreadCounts)
{
    // The full Tab. 6 grid (16 columns) on two chips: histograms must
    // be bit-identical however the pool spreads the jobs.
    auto sweep = [](int threads) {
        EngineOptions opts;
        opts.threads = threads;
        opts.cache = false;
        Engine engine(opts);
        return Campaign()
            .iterations(400)
            .test(pl::mp(), "mp")
            .overChips(std::vector<std::string>{"Titan", "HD7970"})
            .overColumns(1, 16)
            .run(engine);
    };
    auto serial = sweep(1);
    auto parallel = sweep(8);
    ASSERT_EQ(serial.size(), 32u);
    ASSERT_EQ(parallel.size(), 32u);
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].hist.counts(), parallel[i].hist.counts())
            << "cell " << i;
        EXPECT_EQ(serial[i].hist.observed(),
                  parallel[i].hist.observed());
    }
}

TEST(Campaign, WrapperReproducesCampaignHistograms)
{
    // harness::run must be seed-identical to the same cell inside a
    // batched campaign.
    RunConfig cfg;
    cfg.iterations = 1500;
    cfg.inc = sim::Incantations::fromColumn(12);
    litmus::Histogram direct = run(sim::chip("TesC"), pl::sb(), cfg);

    Engine engine;
    auto results =
        engine.run({Job::fromConfig(sim::chip("TesC"), pl::sb(), cfg)});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(direct.counts(), results[0].hist.counts());
    EXPECT_EQ(direct.observed(), results[0].hist.observed());
}

TEST(Campaign, CacheServesRepeatedCells)
{
    RunConfig cfg;
    cfg.iterations = 300;
    Job job = Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);

    Engine engine;
    // Duplicate cell within one batch: computed once, aliased once.
    // The alias keeps its own identity (label is not part of the
    // cache key) while reusing the computed histogram.
    Job renamed = job;
    renamed.label = "renamed";
    auto batch = engine.run({job, renamed});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_FALSE(batch[0].fromCache);
    EXPECT_TRUE(batch[1].fromCache);
    EXPECT_EQ(batch[1].label(), "renamed");
    EXPECT_EQ(batch[0].hist.counts(), batch[1].hist.counts());
    EXPECT_EQ(engine.cacheHits(), 1u);
    EXPECT_EQ(engine.cacheSize(), 1u);

    // Same cell in a later run: served from the cache.
    auto again = engine.run({job});
    EXPECT_TRUE(again[0].fromCache);
    EXPECT_EQ(again[0].hist.counts(), batch[0].hist.counts());
    EXPECT_EQ(engine.cacheHits(), 2u);

    // A different cell misses.
    Job other = job;
    other.inc = sim::Incantations::fromColumn(9);
    auto miss = engine.run({other});
    EXPECT_FALSE(miss[0].fromCache);
    EXPECT_EQ(engine.cacheSize(), 2u);

    engine.clearCache();
    EXPECT_EQ(engine.cacheSize(), 0u);
}

TEST(Campaign, CacheCanBeDisabled)
{
    RunConfig cfg;
    cfg.iterations = 200;
    Job job = Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    EngineOptions opts;
    opts.cache = false;
    Engine engine(opts);
    auto batch = engine.run({job, job});
    EXPECT_FALSE(batch[0].fromCache);
    EXPECT_FALSE(batch[1].fromCache);
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.cacheSize(), 0u);
    // Still deterministic: both computed the same stream.
    EXPECT_EQ(batch[0].hist.counts(), batch[1].hist.counts());
}

TEST(Campaign, TableSinkShape)
{
    TableSink table("test", TableSink::byLabel(),
                    TableSink::byColumn());
    Engine engine;
    Campaign()
        .iterations(200)
        .test(pl::mp(), "mp")
        .test(pl::sb(), "sb")
        .overColumns(9, 12)
        .run(engine, {&table});
    std::string rendered = table.render().str();
    // Header: corner + the four columns; body: one row per test.
    EXPECT_NE(rendered.find("test"), std::string::npos);
    for (const char *col : {"9", "10", "11", "12"})
        EXPECT_NE(rendered.find(col), std::string::npos);
    EXPECT_NE(rendered.find("mp"), std::string::npos);
    EXPECT_NE(rendered.find("sb"), std::string::npos);
    // 1 header + 1 rule + 2 body rows.
    size_t lines = 0;
    for (char ch : rendered)
        lines += ch == '\n';
    EXPECT_EQ(lines, 4u);
}

TEST(Campaign, JsonSinkShape)
{
    JsonSink json;
    Engine engine;
    auto results = Campaign()
                       .iterations(200)
                       .test(pl::mp(), "mp")
                       .overColumns(15, 16)
                       .run(engine, {&json});
    ASSERT_EQ(json.size(), 2u);
    std::ostringstream os;
    json.writeTo(os);
    std::string doc = os.str();
    EXPECT_EQ(doc.front(), '[');
    for (const char *field :
         {"\"label\":\"mp\"", "\"chip\":\"Titan\"", "\"column\":15",
          "\"column\":16", "\"iterations\":200", "\"obs_per_100k\":",
          "\"counts\":{", "\"cached\":false"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
    // The JSON mirrors the returned results.
    EXPECT_NE(doc.find("\"observed\":" + std::to_string(
                           results[0].hist.observed())),
              std::string::npos);
}

TEST(Campaign, ProgressCallbackCountsComputedJobs)
{
    size_t calls = 0;
    size_t last_total = 0;
    Engine engine;
    Campaign()
        .iterations(100)
        .test(pl::mp(), "mp")
        .overColumns(1, 4)
        .run(engine, {},
             [&](size_t done, size_t total, const JobResult &) {
                 ++calls;
                 last_total = total;
                 EXPECT_LE(done, total);
             });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_total, 4u);
}

TEST(Campaign, DefaultJobsFromEnv)
{
    setenv("GPULITMUS_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    setenv("GPULITMUS_JOBS", "bogus", 1);
    EXPECT_GE(defaultJobs(), 1);
    unsetenv("GPULITMUS_JOBS");
    EXPECT_GE(defaultJobs(), 1);
}

} // namespace
} // namespace gpulitmus::harness
