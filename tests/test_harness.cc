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

/** `test` on `chip` as one sim Job: `iterations` runs under `inc` at
 * the base seed. */
Job
cell(const sim::ChipProfile &chip, const litmus::Test &test,
     uint64_t iterations, sim::Incantations inc = sim::Incantations::all())
{
    Job job;
    job.chip = chip;
    job.test = test;
    job.iterations = iterations;
    job.inc = inc;
    return job;
}

/** runJob of cell(sim::chip(chip), ...): its observation count. */
uint64_t
observed(const char *chip, const litmus::Test &test, uint64_t iterations,
         sim::Incantations inc = sim::Incantations::all())
{
    return runJob(cell(sim::chip(chip), test, iterations, inc))
        .hist.observed();
}

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
                Job job = cell(chip, test, 2000,
                               sim::Incantations::fromColumn(column));

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
    JobResult r = runJob(cell(sim::chip("Titan"), pl::mp(), 500));
    const litmus::Histogram &h = r.hist;
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
    Job c16 = cell(sim::chip("Titan"), pl::mp(), 3000,
                   sim::Incantations::fromColumn(16));
    c16.seed = 12345;
    Job c1 = c16;
    c1.inc = sim::Incantations::fromColumn(1);

    JobResult first = runJob(c16);
    // Reconfigure the cached machine (same chip/test, column 1) and
    // touch a second chip and a second test in between.
    runJob(c1);
    Job other_chip = c16;
    other_chip.chip = sim::chip("GTX5");
    runJob(other_chip);
    Job other_test = c16;
    other_test.test = pl::sb();
    runJob(other_test);
    JobResult again = runJob(c16);
    EXPECT_EQ(first.hist.counts(), again.hist.counts());
    EXPECT_EQ(first.hist.observed(), again.hist.observed());
}

TEST(Runner, ReproducibleWithSameSeed)
{
    Job job = cell(sim::chip("TesC"), pl::sb(), 2000);
    JobResult a = runJob(job);
    JobResult b = runJob(job);
    EXPECT_EQ(a.hist.observed(), b.hist.observed());
    EXPECT_EQ(a.hist.counts(), b.hist.counts());
}

TEST(Runner, DifferentSeedsDiffer)
{
    Job a_job = cell(sim::chip("Titan"), pl::sb(), 5000);
    Job b_job = a_job;
    b_job.seed = a_job.seed + 1;
    JobResult a = runJob(a_job);
    JobResult b = runJob(b_job);
    // Weak counts fluctuate between seeds (they are samples).
    EXPECT_NE(a.hist.counts(), b.hist.counts());
}

TEST(Runner, ObservePer100kNormalises)
{
    // A test whose condition always holds: final x=1 after one store.
    litmus::Test t = litmus::TestBuilder("always")
                         .global("x", 0)
                         .thread("st.cg [x],1")
                         .intraCta()
                         .exists("x=1")
                         .build();
    EXPECT_EQ(runJob(cell(sim::chip("Titan"), t, 1000)).observedPer100k,
              100000u);
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
    JobResult r = runJob(cell(sim::chip("Titan"), pl::mp(), 20000));
    // All four r1/r2 combinations should be reachable under stress.
    EXPECT_EQ(r.hist.counts().size(), 4u);
}

TEST(Incantations, StressIsRequiredOnNvidia)
{
    sim::Incantations without = sim::Incantations::all();
    without.memoryStress = false;
    without.bankConflicts = false;
    EXPECT_GT(observed("Titan", pl::sb(), 8000), 0u);
    EXPECT_EQ(observed("Titan", pl::sb(), 8000, without), 0u);
}

TEST(Incantations, AmdWeakWithoutStress)
{
    EXPECT_GT(
        observed("HD7970", pl::lb(), 8000, sim::Incantations::none()),
        0u);
}

TEST(Incantations, SyncIncreasesInterCtaIncidence)
{
    uint64_t without_sync = observed( // stress only
        "Titan", pl::sb(), 30000, sim::Incantations::fromColumn(9));
    uint64_t with_sync = observed( // stress + sync
        "Titan", pl::sb(), 30000, sim::Incantations::fromColumn(11));
    EXPECT_GT(with_sync, without_sync);
}

TEST(Incantations, BankConflictsNeededForCoRRWithoutStress)
{
    EXPECT_GT(observed("Titan", pl::coRR(), 20000, // bank + rand
                       sim::Incantations::fromColumn(6)),
              0u);
    EXPECT_EQ(observed("Titan", pl::coRR(), 20000, // rand alone
                       sim::Incantations::fromColumn(2)),
              0u);
}

TEST(Incantations, BankConflictsDampenInterCtaOnNvidia)
{
    uint64_t without_bank = observed("Titan", pl::lb(), 40000,
                                     sim::Incantations::fromColumn(12));
    uint64_t with_bank = observed("Titan", pl::lb(), 40000,
                                  sim::Incantations::fromColumn(16));
    EXPECT_GT(without_bank, with_bank);
}

// ---- job identity and worker count --------------------------------
// (Grid order is the planner's, tested in test_serve.cc; the engine
// that runs a grid is tested in test_eval.cc.)

TEST(Job, JobKeysDistinguishChipsAndColumns)
{
    Job a = cell(sim::chip("Titan"), pl::mp(), 100000);
    Job b = cell(sim::chip("TesC"), pl::mp(), 100000);
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

TEST(Job, DefaultJobsFromEnv)
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
