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
 *   variant the lazy search settles; and, for the five cells only
 *   eager issue settles at the default budget, the reachable sets a
 *   lazy search found with a 16M-replay budget.
 *
 * The Explorer is called directly, so the mc backend's static
 * pre-pass answers no cell.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "scenario/registry.h"
#include "sim/chip.h"

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
    // Every cell the lazy search settles within 1<<17 replays. The
    // rest are the heavy lock cells, pinned by the next test.
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
    EXPECT_GE(compared, 30);
}

TEST(McDiff, EagerIssueSettlesTheHeavyLockCellsAtTheDefaultBudget)
{
    // The eight variant cells the previous test skips: the lazy
    // search needs more than 1<<17 replays for each, and leaves the
    // first five bounded even at the default 1<<20. With a 1<<24
    // budget it settles all eight with the sets below (flag_barrier
    // fair-complete, seqlock complete). The eager search must settle
    // them at the default budget, with the same sets.
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

} // namespace
} // namespace gpulitmus
