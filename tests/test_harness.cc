/**
 * @file
 * Tests for the harness: reproducibility, histogram integrity,
 * iteration plumbing, and the incidence ordering the incantations
 * induce (Tab. 6's qualitative claims).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus::harness {
namespace {

namespace pl = litmus::paperlib;

/** The litmus-tests/ corpus, parsed. */
std::vector<litmus::Test>
loadCorpus()
{
    std::vector<litmus::Test> corpus;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests")) {
        std::ifstream in(entry.path());
        std::stringstream ss;
        ss << in.rdbuf();
        litmus::ParseError err;
        auto test = litmus::parseTest(ss.str(), &err);
        EXPECT_TRUE(test.has_value())
            << entry.path() << ": " << err.message;
        if (test)
            corpus.push_back(std::move(*test));
    }
    EXPECT_GE(corpus.size(), 20u);
    return corpus;
}

TEST(Runner, RunJobMatchesPerIterationRecordingOverTheCorpus)
{
    // Differential oracle for runJob's fast path (outcomes recorded by
    // digest, unused SMs left alone, one cached machine reused across
    // jobs): the reference is the plain loop — a freshly compiled
    // machine, one materialised final state recorded per iteration —
    // at the job's own RNG stream.
    std::vector<litmus::Test> corpus = loadCorpus();
    // Plus Fig. 3's inter-CTA mp with .ca loads: the corpus has no
    // test that reads an L1 on another SM than the writer's.
    for (pl::FenceOpt fence :
         {pl::FenceOpt{}, pl::FenceOpt{ptx::Scope::Cta},
          pl::FenceOpt{ptx::Scope::Gl}, pl::FenceOpt{ptx::Scope::Sys}})
        corpus.push_back(pl::mpL1(fence));

    size_t cells = 0;
    for (const auto &test : corpus) {
        for (const auto &chip : sim::allChips()) {
            for (int column : {1, 6, 8, 12, 16}) {
                RunConfig cfg;
                cfg.iterations = 2000;
                cfg.inc = sim::Incantations::fromColumn(column);
                Job job = Job::fromConfig(chip, test, cfg);

                litmus::Histogram ref(test);
                sim::MachineOptions opts;
                opts.inc = job.inc;
                opts.maxMicroSteps = job.maxMicroSteps;
                sim::Machine machine(chip, test, opts);
                Rng rng(job.derivedSeed());
                for (uint64_t i = 0; i < job.iterations; ++i)
                    ref.record(machine.run(rng));

                JobResult got = runJob(job);
                std::string cell = test.name + "@" + chip.shortName +
                                   " column " + std::to_string(column);
                EXPECT_EQ(got.hist.counts(), ref.counts()) << cell;
                EXPECT_EQ(got.hist.observed(), ref.observed()) << cell;
                EXPECT_EQ(got.hist.total(), ref.total()) << cell;
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, corpus.size() * sim::allChips().size() * 5);
}

/**
 * Forwards every draw to an RngChoice. Not final and passed as a
 * plain ChoiceProvider, so the machine takes its virtual
 * instantiation, with the interface's default pickActor, delayBump
 * and skipChances (one chance() per skipped draw).
 */
struct ForwardingChoice : sim::ChoiceProvider
{
    sim::RngChoice inner;

    explicit ForwardingChoice(Rng &rng) : inner(rng) {}

    uint64_t
    pick(sim::ChoiceKind kind, uint64_t n) override
    {
        return inner.pick(kind, n);
    }

    bool
    chance(sim::ChoiceKind kind, double p, bool relevant) override
    {
        return inner.chance(kind, p, relevant);
    }
};

/** Run `iterations` runs of `test` through both instantiations of
 * one seeded stream; every run must end in the same final state,
 * step count and truncation flag, with both Rngs at the same
 * position. Returns the truncated runs. */
int
expectInstantiationsAgree(const sim::ChipProfile &chip,
                          const litmus::Test &test,
                          const sim::MachineOptions &opts,
                          uint64_t seed, int iterations,
                          const std::string &cell)
{
    sim::Machine fast(chip, test, opts), generic(chip, test, opts);
    Rng fast_rng(seed), generic_rng(seed);
    sim::RngChoice sampler(fast_rng);
    ForwardingChoice forwarder(generic_rng);
    sim::ChoiceProvider &provider = forwarder;
    int truncated = 0;
    for (int i = 0; i < iterations; ++i) {
        EXPECT_TRUE(fast.runLight(sampler)) << cell;
        EXPECT_TRUE(generic.runLight(provider)) << cell;
        Rng a = fast_rng, b = generic_rng;
        bool agree = fast.outcomeDigest() == generic.outcomeDigest() &&
                     fast.lastRunSteps() == generic.lastRunSteps() &&
                     fast.lastRunTruncated() ==
                         generic.lastRunTruncated() &&
                     a.next() == b.next() &&
                     (i % 64 != 0 ||
                      fast.finalState() == generic.finalState());
        if (!agree) {
            ADD_FAILURE() << cell << ": run " << i << " differs";
            break;
        }
        truncated += fast.lastRunTruncated() ? 1 : 0;
    }
    return truncated;
}

TEST(Runner, SamplerInstantiationMatchesTheVirtualOneOverTheCorpus)
{
    // runJob and Machine::run(Rng&) take the machine's RngChoice
    // instantiation; the explorer and every other provider take the
    // virtual one. Both are one source, so a forwarding provider over
    // the same seeded Rng must walk the same runs draw for draw.
    std::vector<litmus::Test> corpus = loadCorpus();
    // Fig. 12's sb mixes a shared and a global location (the corpus's
    // mp-volatile is all-shared): the shared-memory reset runs.
    corpus.push_back(pl::sbFig12());
    for (const auto &test : corpus) {
        for (const auto &chip : sim::allChips()) {
            for (int column : {1, 6, 8, 12, 16}) {
                sim::MachineOptions opts;
                opts.inc = sim::Incantations::fromColumn(column);
                expectInstantiationsAgree(
                    chip, test, opts, 0xfeed + column, 300,
                    test.name + "@" + chip.shortName + " column " +
                        std::to_string(column));
            }
        }
    }
    // A spin lock at a step bound it often hits: the truncated
    // finish (in-order drain of every window and buffer) agrees too.
    litmus::Test cas = pl::casSl(false);
    int truncated = 0;
    for (const auto &chip : sim::allChips()) {
        sim::MachineOptions opts;
        opts.maxMicroSteps = 24;
        truncated += expectInstantiationsAgree(
            chip, cas, opts, 0xca5, 300,
            "cas-sl@" + chip.shortName + " at 24 steps");
    }
    EXPECT_GT(truncated, 0);
}

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

// ---- campaign grid --------------------------------------------------
// (The engine that runs the grid is tested in test_eval.cc.)

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
