/**
 * @file
 * Differential oracle for exact exploration (mc/explorer.cc): sampled
 * simulator outcomes (3 seeds) are a subset of the exact reachable
 * set whenever the exploration settled (complete, or fair-complete
 * for spin-loop scenarios). A traversal bug that loses or invents
 * reachable states breaks this from either side. The inputs are the
 * whole corpus and every registry-scenario variant.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
        for (uint64_t seed : {1u, 2u, 3u}) {
            harness::RunConfig cfg;
            cfg.iterations = 1000;
            cfg.seed = seed;
            cfg.inc = sim::Incantations::fromColumn(16);
            litmus::Histogram hist =
                harness::run(sim::chip("Titan"), test, cfg);
            for (const auto &[key, count] : hist.counts()) {
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
        for (uint64_t seed : {7u, 8u, 9u}) {
            harness::RunConfig cfg;
            cfg.iterations = 300;
            cfg.seed = seed;
            cfg.maxMicroSteps = built->maxMicroSteps;
            cfg.inc = sim::Incantations::fromColumn(16);
            litmus::Histogram hist =
                harness::run(sim::chip("TesC"), built->test, cfg);
            for (const auto &[key, count] : hist.counts()) {
                if (count > 0) {
                    EXPECT_TRUE(exact.reachable(key))
                        << spec << " seed " << seed << ": sampled '"
                        << key << "' escaped the exploration";
                }
            }
        }
    }
}

} // namespace
} // namespace gpulitmus
