/**
 * @file
 * Differential oracles for exact exploration (mc/explorer.cc):
 *
 * - sampled simulator outcomes (3 seeds) are a subset of the exact
 *   reachable set whenever the exploration settled (complete, or
 *   fair-complete for spin-loop scenarios). A traversal bug that
 *   loses or invents reachable states breaks this from either side.
 *   The inputs are the whole corpus and every registry-scenario
 *   variant.
 * - eager issue (the default) against the lazy traversal it replaced:
 *   equal reachable sets, satisfying sets and completeness over the
 *   corpus on every chip, the generated programs and every scenario
 *   variant; and, for the eight heavy lock cells, the reachable sets
 *   a lazy search found with a 16M-replay budget.
 * - dead L1 draws (sim/machine.h, "Live L1 lines only") against their
 *   flipped twins: a random run of every corpus test, paper-library
 *   test, registry variant and generated program without a ld.ca is
 *   repeated with each L1 draw the machine calls irrelevant answered
 *   the other way, and must ask the same other choices, pass through
 *   the same encoded states and reach the same outcome. In a test
 *   with a ld.ca every L1 draw must arrive relevant.
 *
 * The Explorer is called directly, so the mc backend's static
 * pre-pass answers no cell.
 */

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "scenario/registry.h"
#include "sim/chip.h"
#include "sim/machine.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus {
namespace {

// ---------------------------------------------------------------------
// Inputs: the whole corpus, and every scenario variant.
// ---------------------------------------------------------------------

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    std::string dir =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests";
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".litmus")
            files.push_back(e.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    EXPECT_GE(files.size(), 10u);
    return files;
}

litmus::Test
loadCorpus(const std::string &name)
{
    std::string path =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    auto test = litmus::parseTest(ss.str());
    EXPECT_TRUE(test.has_value()) << path;
    return *test;
}

/** Every registry scenario in both fence variants — the "14 scenario
 * variants" axis the benches sweep. */
std::vector<std::string>
variantSpecs()
{
    std::vector<std::string> specs;
    for (const auto &s : scenario::all()) {
        for (int fenced = 0; fenced <= 1; ++fenced)
            specs.push_back("scenario:" + s.name +
                            ",fenced=" + std::to_string(fenced));
    }
    EXPECT_EQ(specs.size(), 14u);
    return specs;
}

mc::ExploreResult
exploreTest(const litmus::Test &test, const char *chip, int column,
            mc::ExploreOptions opts)
{
    opts.machine.inc = sim::Incantations::fromColumn(column);
    return mc::Explorer(sim::chip(chip), test, opts).explore();
}

TEST(McDiff, CorpusSampledOutcomesSubsetOfExact)
{
    for (const std::string &file : corpusFiles()) {
        litmus::Test test = loadCorpus(file);
        mc::ExploreResult exact = exploreTest(test, "Titan", 16, {});
        ASSERT_TRUE(exact.complete) << file;
        harness::Job job;
        job.chip = sim::chip("Titan");
        job.test = test;
        job.inc = sim::Incantations::fromColumn(16);
        job.iterations = 1000;
        for (uint64_t seed : {1u, 2u, 3u}) {
            job.seed = seed;
            harness::JobResult sampled = harness::runJob(job);
            for (const auto &[key, count] : sampled.hist.counts()) {
                if (count > 0) {
                    EXPECT_TRUE(exact.reachable(key))
                        << file << " seed " << seed << ": sampled '"
                        << key << "' escaped the exploration";
                }
            }
        }
    }
}

TEST(McDiff, ScenarioSampledOutcomesSubsetOfExact)
{
    // The oracle holds wherever the exploration settled: `complete`
    // is airtight; `fairComplete` covers every terminating execution
    // and the scenarios' maxMicroSteps headroom keeps the sampler's
    // runaway guard out of play. Variants that stay bounded at this
    // budget (the heavy lock scenarios) are skipped here — their
    // reachable set is only a lower bound, so subset is not a
    // theorem.
    for (const std::string &spec : variantSpecs()) {
        std::string error;
        auto built = scenario::buildSpec(spec, &error);
        ASSERT_TRUE(built.has_value()) << error;
        mc::ExploreOptions opts;
        opts.machine.maxMicroSteps = built->maxMicroSteps;
        opts.maxReplays = 1u << 17;
        opts.maxStates = 1u << 24;
        mc::ExploreResult exact =
            exploreTest(built->test, "TesC", 16, opts);
        if (!exact.complete && !exact.fairComplete)
            continue;
        harness::Job job;
        job.chip = sim::chip("TesC");
        job.test = built->test;
        job.inc = sim::Incantations::fromColumn(16);
        job.iterations = 300;
        job.maxMicroSteps = built->maxMicroSteps;
        for (uint64_t seed : {7u, 8u, 9u}) {
            job.seed = seed;
            harness::JobResult sampled = harness::runJob(job);
            for (const auto &[key, count] : sampled.hist.counts()) {
                if (count > 0) {
                    EXPECT_TRUE(exact.reachable(key))
                        << spec << " seed " << seed << ": sampled '"
                        << key << "' escaped the exploration";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Eager issue against the lazy traversal.
// ---------------------------------------------------------------------

/** Reachable set, satisfying set and completeness must agree. */
void
expectSameVerdict(const mc::ExploreResult &lazy,
                  const mc::ExploreResult &eager,
                  const std::string &label)
{
    std::set<std::string> lazy_keys, eager_keys;
    for (const auto &[key, weight] : lazy.finals)
        lazy_keys.insert(key);
    for (const auto &[key, weight] : eager.finals)
        eager_keys.insert(key);
    EXPECT_EQ(eager_keys, lazy_keys) << label;
    EXPECT_EQ(eager.satisfying, lazy.satisfying) << label;
    EXPECT_EQ(eager.complete, lazy.complete) << label;
    EXPECT_EQ(eager.fairComplete, lazy.fairComplete) << label;
}

mc::ExploreOptions
lazyOptions(mc::ExploreOptions opts = {})
{
    opts.eagerIssue = false;
    return opts;
}

TEST(McDiff, EagerIssueMatchesLazyOverTheCorpusOnEveryChip)
{
    for (const std::string &file : corpusFiles()) {
        litmus::Test test = loadCorpus(file);
        for (const sim::ChipProfile &chip : sim::allChips()) {
            const char *name = chip.shortName.c_str();
            mc::ExploreResult lazy =
                exploreTest(test, name, 16, lazyOptions());
            mc::ExploreResult eager = exploreTest(test, name, 16, {});
            ASSERT_TRUE(lazy.complete) << file << "@" << name;
            expectSameVerdict(lazy, eager, file + "@" + name);
        }
    }
}

TEST(McDiff, EagerIssueMatchesLazyOverGeneratedPrograms)
{
    gen::GeneratorOptions gopts;
    gopts.maxEdges = 4;
    gopts.maxTests = 250;
    auto tests = gen::generate(gen::defaultPool(), gopts);
    ASSERT_EQ(tests.size(), 250u);
    for (const auto &g : tests) {
        mc::ExploreResult lazy =
            exploreTest(g.test, "Titan", 16, lazyOptions());
        mc::ExploreResult eager = exploreTest(g.test, "Titan", 16, {});
        ASSERT_TRUE(lazy.complete) << g.cycleName;
        expectSameVerdict(lazy, eager, g.cycleName);
    }
}

TEST(McDiff, EagerIssueMatchesLazyOverTheScenarioVariants)
{
    // The lazy search settles all 42 cells within 1<<17 replays. The
    // heavy lock cells are also pinned by the next test.
    int compared = 0;
    for (const std::string &spec : variantSpecs()) {
        std::string error;
        auto built = scenario::buildSpec(spec, &error);
        ASSERT_TRUE(built.has_value()) << error;
        for (const char *chip : {"TesC", "Titan", "GTX7"}) {
            mc::ExploreOptions opts;
            opts.machine.maxMicroSteps = built->maxMicroSteps;
            opts.maxReplays = 1u << 17;
            opts.maxStates = 1u << 24;
            mc::ExploreResult lazy =
                exploreTest(built->test, chip, 16, lazyOptions(opts));
            if (!lazy.complete && !lazy.fairComplete)
                continue;
            ++compared;
            mc::ExploreResult eager =
                exploreTest(built->test, chip, 16, opts);
            expectSameVerdict(lazy, eager, spec + "@" + chip);
        }
    }
    EXPECT_EQ(compared, 42);
}

TEST(McDiff, EagerIssueSettlesTheHeavyLockCellsAtTheDefaultBudget)
{
    // The eight heavy lock cells. A lazy search that still branched
    // on dead L1 draws needed more than 1<<17 replays for each and
    // left the first five bounded even at the default 1<<20; with a
    // 1<<24 budget it settled all eight with the sets below
    // (flag_barrier fair-complete, seqlock complete). The eager search
    // must settle them at the default budget, with the same sets.
    const std::set<std::string> flag_barrier = {
        "0:r1=0; 1:r1=0;", "0:r1=0; 1:r1=1;",
        "0:r1=1; 1:r1=0;", "0:r1=1; 1:r1=1;"};
    const std::set<std::string> flag_barrier_fenced = {
        "0:r1=1; 1:r1=1;"};
    const std::set<std::string> seqlock = {
        "1:r0=0; 1:r3=0; 1:r1=0; 1:r2=0;", "1:r0=0; 1:r3=0; 1:r1=0; 1:r2=1;",
        "1:r0=0; 1:r3=0; 1:r1=1; 1:r2=0;", "1:r0=0; 1:r3=0; 1:r1=1; 1:r2=1;",
        "1:r0=0; 1:r3=1; 1:r1=0; 1:r2=0;", "1:r0=0; 1:r3=1; 1:r1=0; 1:r2=1;",
        "1:r0=0; 1:r3=1; 1:r1=1; 1:r2=0;", "1:r0=0; 1:r3=1; 1:r1=1; 1:r2=1;",
        "1:r0=0; 1:r3=2; 1:r1=0; 1:r2=0;", "1:r0=0; 1:r3=2; 1:r1=0; 1:r2=1;",
        "1:r0=0; 1:r3=2; 1:r1=1; 1:r2=0;", "1:r0=0; 1:r3=2; 1:r1=1; 1:r2=1;",
        "1:r0=1; 1:r3=0; 1:r1=0; 1:r2=0;", "1:r0=1; 1:r3=0; 1:r1=0; 1:r2=1;",
        "1:r0=1; 1:r3=0; 1:r1=1; 1:r2=0;", "1:r0=1; 1:r3=0; 1:r1=1; 1:r2=1;",
        "1:r0=1; 1:r3=1; 1:r1=0; 1:r2=0;", "1:r0=1; 1:r3=1; 1:r1=0; 1:r2=1;",
        "1:r0=1; 1:r3=1; 1:r1=1; 1:r2=0;", "1:r0=1; 1:r3=1; 1:r1=1; 1:r2=1;",
        "1:r0=1; 1:r3=2; 1:r1=0; 1:r2=0;", "1:r0=1; 1:r3=2; 1:r1=0; 1:r2=1;",
        "1:r0=1; 1:r3=2; 1:r1=1; 1:r2=0;", "1:r0=1; 1:r3=2; 1:r1=1; 1:r2=1;",
        "1:r0=2; 1:r3=0; 1:r1=0; 1:r2=0;", "1:r0=2; 1:r3=0; 1:r1=0; 1:r2=1;",
        "1:r0=2; 1:r3=0; 1:r1=1; 1:r2=0;", "1:r0=2; 1:r3=0; 1:r1=1; 1:r2=1;",
        "1:r0=2; 1:r3=1; 1:r1=0; 1:r2=0;", "1:r0=2; 1:r3=1; 1:r1=0; 1:r2=1;",
        "1:r0=2; 1:r3=1; 1:r1=1; 1:r2=0;", "1:r0=2; 1:r3=1; 1:r1=1; 1:r2=1;",
        "1:r0=2; 1:r3=2; 1:r1=0; 1:r2=0;", "1:r0=2; 1:r3=2; 1:r1=0; 1:r2=1;",
        "1:r0=2; 1:r3=2; 1:r1=1; 1:r2=0;", "1:r0=2; 1:r3=2; 1:r1=1; 1:r2=1;"};
    const std::set<std::string> seqlock_fenced = {
        "1:r0=0; 1:r3=0; 1:r1=0; 1:r2=0;", "1:r0=0; 1:r3=1; 1:r1=0; 1:r2=0;",
        "1:r0=0; 1:r3=1; 1:r1=0; 1:r2=1;", "1:r0=0; 1:r3=1; 1:r1=1; 1:r2=0;",
        "1:r0=0; 1:r3=1; 1:r1=1; 1:r2=1;", "1:r0=0; 1:r3=2; 1:r1=0; 1:r2=0;",
        "1:r0=0; 1:r3=2; 1:r1=0; 1:r2=1;", "1:r0=0; 1:r3=2; 1:r1=1; 1:r2=0;",
        "1:r0=0; 1:r3=2; 1:r1=1; 1:r2=1;", "1:r0=1; 1:r3=1; 1:r1=0; 1:r2=0;",
        "1:r0=1; 1:r3=1; 1:r1=0; 1:r2=1;", "1:r0=1; 1:r3=1; 1:r1=1; 1:r2=0;",
        "1:r0=1; 1:r3=1; 1:r1=1; 1:r2=1;", "1:r0=1; 1:r3=2; 1:r1=0; 1:r2=0;",
        "1:r0=1; 1:r3=2; 1:r1=0; 1:r2=1;", "1:r0=1; 1:r3=2; 1:r1=1; 1:r2=0;",
        "1:r0=1; 1:r3=2; 1:r1=1; 1:r2=1;", "1:r0=2; 1:r3=2; 1:r1=1; 1:r2=1;"};
    struct Cell
    {
        const char *spec, *chip;
        const std::set<std::string> *reachable;
        bool complete;
    };
    const Cell cells[] = {
        {"scenario:flag_barrier,fenced=0", "TesC", &flag_barrier, false},
        {"scenario:flag_barrier,fenced=0", "Titan", &flag_barrier, false},
        {"scenario:flag_barrier,fenced=1", "TesC", &flag_barrier_fenced,
         false},
        {"scenario:seqlock,fenced=0", "TesC", &seqlock, true},
        {"scenario:seqlock,fenced=0", "Titan", &seqlock, true},
        {"scenario:flag_barrier,fenced=1", "Titan", &flag_barrier_fenced,
         false},
        {"scenario:seqlock,fenced=1", "TesC", &seqlock_fenced, true},
        {"scenario:seqlock,fenced=1", "Titan", &seqlock_fenced, true},
    };
    for (const Cell &cell : cells) {
        std::string label = std::string(cell.spec) + "@" + cell.chip;
        std::string error;
        auto built = scenario::buildSpec(cell.spec, &error);
        ASSERT_TRUE(built.has_value()) << error;
        mc::ExploreOptions opts;
        opts.machine.maxMicroSteps = built->maxMicroSteps;
        mc::ExploreResult eager =
            exploreTest(built->test, cell.chip, 16, opts);
        EXPECT_TRUE(eager.fairComplete) << label;
        EXPECT_EQ(eager.complete, cell.complete) << label;
        std::set<std::string> keys;
        for (const auto &[key, weight] : eager.finals)
            keys.insert(key);
        EXPECT_EQ(keys, *cell.reachable) << label;
    }
}

// ---------------------------------------------------------------------
// Dead L1 draws against their flipped twins.
// ---------------------------------------------------------------------

bool
isL1Draw(sim::ChoiceKind kind)
{
    return kind == sim::ChoiceKind::L1Warm ||
           kind == sim::ChoiceKind::CgEvict ||
           kind == sim::ChoiceKind::FenceInval;
}

/**
 * A random provider that records a run. An L1 draw arriving
 * irrelevant is answered from a stream of its own (negated when
 * `flip`), so the two twins' other choices come from one stream in
 * one order however many dead draws each makes. Every other choice is
 * logged with its answer, and the encoded machine state at every
 * schedule point.
 */
struct RecordingChoice final : sim::ChoiceProvider
{
    const sim::Machine *machine;
    Rng main, dead;
    bool flip, eager;
    std::vector<uint64_t> log;
    std::vector<Digest128> states;
    /** L1 draws made (skipChances aside), by relevance. */
    uint64_t liveDraws = 0, deadDraws = 0;

    RecordingChoice(const sim::Machine &m, uint64_t seed, bool flip_dead,
                    bool eager_issue)
        : machine(&m), main(seed), dead(~seed), flip(flip_dead),
          eager(eager_issue)
    {
    }

    bool eagerIssue() const override { return eager; }

    uint64_t
    pick(sim::ChoiceKind kind, uint64_t n) override
    {
        uint64_t v = main.below(n);
        log.insert(log.end(), {static_cast<uint64_t>(kind), n, v});
        return v;
    }

    bool
    chance(sim::ChoiceKind kind, double p, bool relevant) override
    {
        if (isL1Draw(kind)) {
            ++(relevant ? liveDraws : deadDraws);
            if (!relevant)
                return dead.chance(p) != flip;
        }
        bool v = main.chance(p);
        log.insert(log.end(), {static_cast<uint64_t>(kind),
                               std::bit_cast<uint64_t>(p), relevant, v});
        return v;
    }

    void
    skipChances(sim::ChoiceKind kind, double, int n) override
    {
        log.insert(log.end(), {static_cast<uint64_t>(kind),
                               static_cast<uint64_t>(n)});
    }

    size_t
    pickActor(const sim::ActorOption *, size_t n) override
    {
        Hash128 h;
        machine->hashState(h);
        states.push_back(h.digest());
        return static_cast<size_t>(pick(sim::ChoiceKind::Schedule, n));
    }
};

/** Whether some thread of `test` has a ld.ca: the only load that
 * reads an L1 line. */
bool
hasCaLoad(const litmus::Test &test)
{
    for (const auto &thread : test.program.threads) {
        for (const auto &in : thread.instrs) {
            if (in.op == ptx::Opcode::Ld &&
                in.cacheOp == ptx::CacheOp::Ca)
                return true;
        }
    }
    return false;
}

struct FlipTally
{
    int tests = 0, dead = 0;
    uint64_t deadDraws = 0, liveDraws = 0;
};

/**
 * Run `test` at six seeds on every chip, in the sampler's issue mode
 * and the explorer's, each at three incantation columns; without a
 * ld.ca, run its flipped twin too.
 */
void
checkFlippedTwins(const litmus::Test &test, int max_micro_steps,
                  FlipTally &tally)
{
    bool live = hasCaLoad(test);
    ++tally.tests;
    tally.dead += !live;
    const int columns[] = {16, 12, 6};
    for (const sim::ChipProfile &chip : sim::allChips()) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            bool eager = seed % 2 == 0;
            sim::MachineOptions mopts;
            mopts.inc =
                sim::Incantations::fromColumn(columns[seed % 3]);
            mopts.maxMicroSteps = max_micro_steps;
            sim::Machine m(chip, test, mopts);
            std::string label = test.name + "@" + chip.shortName +
                                " seed " + std::to_string(seed);
            RecordingChoice a(m, seed, false, eager);
            ASSERT_TRUE(m.runLight(a)) << label;
            Digest128 outcome = m.outcomeDigest();
            // A live L1's draws all arrive relevant, a dead one's
            // none.
            EXPECT_EQ(live ? a.deadDraws : a.liveDraws, 0u) << label;
            tally.deadDraws += a.deadDraws;
            tally.liveDraws += a.liveDraws;
            if (live)
                continue;
            RecordingChoice b(m, seed, true, eager);
            ASSERT_TRUE(m.runLight(b)) << label;
            EXPECT_EQ(b.log, a.log) << label;
            EXPECT_EQ(b.states, a.states) << label;
            EXPECT_TRUE(m.outcomeDigest() == outcome) << label;
        }
    }
}

TEST(McDiff, DeadL1DrawsAreUnobservable)
{
    FlipTally tally;
    for (const std::string &file : corpusFiles())
        checkFlippedTwins(loadCorpus(file), 4000, tally);
    for (const auto &named : litmus::paperlib::allTests())
        checkFlippedTwins(named.test, 4000, tally);
    // The 22 registry variants: each scenario unfenced and fenced,
    // the dot product at 2..6 threads.
    for (const auto &s : scenario::all()) {
        bool dot = s.name == "spinlock_dot_product";
        for (int threads = 2; threads <= (dot ? 6 : 2); ++threads) {
            for (int fenced = 0; fenced <= 1; ++fenced) {
                std::string spec =
                    "scenario:" + s.name +
                    (dot ? ",threads=" + std::to_string(threads) : "") +
                    ",fenced=" + std::to_string(fenced);
                std::string error;
                auto built = scenario::buildSpec(spec, &error);
                ASSERT_TRUE(built.has_value()) << error;
                checkFlippedTwins(built->test, built->maxMicroSteps,
                                  tally);
            }
        }
    }
    gen::GeneratorOptions gopts;
    gopts.maxEdges = 4;
    gopts.maxTests = 250;
    for (const auto &g : gen::generate(gen::defaultPool(), gopts))
        checkFlippedTwins(g.test, 4000, tally);
    // The inputs cover both sides: tests with and without a ld.ca,
    // and draws of each relevance.
    EXPECT_GE(tally.tests, 20 + 22 + 250);
    EXPECT_GE(tally.dead, 250);
    EXPECT_LT(tally.dead, tally.tests);
    EXPECT_GT(tally.deadDraws, 0u);
    EXPECT_GT(tally.liveDraws, 0u);
}

} // namespace
} // namespace gpulitmus
