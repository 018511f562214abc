/**
 * @file
 * The static analyzer's soundness gate (analysis/race.h + sc.h).
 *
 * The load-bearing claim is one-directional: when the analyzer says
 * *fully ordered* (no conflicting pair lies on a dangerous critical
 * cycle), the program can only produce sequentially consistent
 * outcomes, so the mc explorer's exact reachable set must equal the
 * SC enumeration — on the weakest chips, under the weakest
 * incantations. The explorer pre-pass (eval/backend.cc) substitutes
 * the SC enumeration for the full exploration on exactly this
 * verdict, so any divergence found here is a soundness bug, not a
 * test flake.
 *
 * The battery checks that claim differentially over all three
 * program sources:
 *  - the whole on-disk corpus,
 *  - every registry-scenario variant (7 scenarios x fenced 0/1),
 *  - >= 250 generator-produced cycles,
 * plus the verdict pins the paper-facing scenarios rely on (unfenced
 * spinlock / cas_spinlock / seqlock are proven-racy; their fenced=1
 * variants are fully ordered), the non-vacuity of the fully-ordered
 * class, the lint JSON schema, and the generator-steering contract.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/race.h"
#include "analysis/sc.h"
#include "eval/backend.h"
#include "gen/generator.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "scenario/registry.h"
#include "sim/chip.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus {
namespace {

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

std::set<std::string>
keysOf(const std::map<std::string, uint64_t> &finals)
{
    std::set<std::string> keys;
    for (const auto &[key, weight] : finals)
        keys.insert(key);
    return keys;
}

/** The differential claim itself: for an analyzer-fully-ordered
 * program, a settled exploration reaches exactly the SC set; a
 * bounded one reaches a subset (everything it found is genuinely
 * reachable, hence SC). */
void
expectScEquivalent(const mc::ExploreResult &exact,
                   const analysis::ScResult &sc,
                   const std::string &label)
{
    std::set<std::string> mcKeys = keysOf(exact.finals);
    std::set<std::string> scKeys = keysOf(sc.finals);
    if (exact.complete || exact.fairComplete) {
        EXPECT_EQ(mcKeys, scKeys)
            << label << ": fully-ordered program explored to a "
            << "different reachable set than SC — analyzer unsound "
            << "or SC enumerator wrong";
        EXPECT_EQ(exact.satisfying, sc.satisfying) << label;
    } else {
        for (const auto &key : mcKeys)
            EXPECT_TRUE(scKeys.count(key))
                << label << ": bounded exploration reached non-SC "
                << "state '" << key << "' of a fully-ordered program";
    }
}

// ---------------------------------------------------------------------
// Verdict pins: the paper-facing classifications.
// ---------------------------------------------------------------------

TEST(AnalysisVerdicts, CorpusPins)
{
    analysis::Report mp = analysis::analyze(loadCorpus("mp.litmus"));
    EXPECT_TRUE(mp.anyProven());
    EXPECT_EQ(mp.pairsProven, 2);
    EXPECT_FALSE(mp.fullyOrdered);
    ASSERT_GE(mp.findings.size(), 1u);
    // Satellite contract: findings carry source positions (litmus
    // parser line tracking threaded through ptx::Instruction).
    EXPECT_GT(mp.findings[0].a.srcLine, 0);
    EXPECT_GT(mp.findings[0].b.srcLine, 0);

    analysis::Report fenced =
        analysis::analyze(loadCorpus("mp-membar.gl.litmus"));
    EXPECT_TRUE(fenced.fullyOrdered);
    EXPECT_EQ(fenced.racyPairs(), 0);
    EXPECT_FALSE(fenced.anyProven());

    // corr's two plain loads of one location: the machine may violate
    // read-read coherence (the Fig. 4 L1 behaviour), which no fence
    // placement between *other* accesses repairs.
    analysis::Report corr =
        analysis::analyze(loadCorpus("corr.litmus"));
    EXPECT_TRUE(corr.anyProven());
}

TEST(AnalysisVerdicts, ScenarioPins)
{
    // The acceptance triple: unfenced spinlock / cas_spinlock /
    // seqlock are proven racy (lint exits 2); their fenced=1 variants
    // are fully ordered, matching what exploration shows.
    for (const char *name :
         {"spinlock_dot_product", "cas_spinlock", "seqlock"}) {
        std::string error;
        auto unfenced = scenario::buildSpec(
            std::string("scenario:") + name + ",fenced=0", &error);
        ASSERT_TRUE(unfenced.has_value()) << error;
        analysis::Report rep = analysis::analyze(unfenced->test);
        EXPECT_TRUE(rep.anyProven()) << name << " fenced=0";
        EXPECT_FALSE(rep.fullyOrdered) << name << " fenced=0";

        auto fenced = scenario::buildSpec(
            std::string("scenario:") + name + ",fenced=1", &error);
        ASSERT_TRUE(fenced.has_value()) << error;
        analysis::Report frep = analysis::analyze(fenced->test);
        EXPECT_TRUE(frep.fullyOrdered) << name << " fenced=1";
        EXPECT_EQ(frep.racyPairs(), 0) << name << " fenced=1";
    }
}

TEST(AnalysisVerdicts, JsonSchemaStable)
{
    analysis::Report rep = analysis::analyze(loadCorpus("mp.litmus"));
    std::string json = rep.json();
    // The schema tag and the fields the CI lint-smoke job greps for.
    EXPECT_NE(json.find("\"schema\":\"gpulitmus-lint-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"fully_ordered\":"), std::string::npos);
    EXPECT_NE(json.find("\"findings\":"), std::string::npos);
    EXPECT_NE(json.find("\"proven-racy\""), std::string::npos);
    EXPECT_NE(json.find("\"line\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// The SC enumerator on its own.
// ---------------------------------------------------------------------

TEST(ScEnumerator, MpScSetIsThreeStatesNoneSatisfying)
{
    litmus::Test test = loadCorpus("mp.litmus");
    auto sc = analysis::enumerateSc(test);
    ASSERT_TRUE(sc.has_value());
    EXPECT_TRUE(sc->complete);
    // Under SC, message passing admits 0/0, 0/1 and 1/1 but never
    // the relaxed 1/0 the exists-clause asks for.
    EXPECT_EQ(sc->finals.size(), 3u);
    EXPECT_TRUE(sc->satisfying.empty());
}

TEST(ScEnumerator, StateBudgetDegradesToNullopt)
{
    litmus::Test test = loadCorpus("mp.litmus");
    analysis::ScOptions opts;
    opts.maxStates = 2;
    EXPECT_FALSE(analysis::enumerateSc(test, opts).has_value());
}

// ---------------------------------------------------------------------
// The differential gate, over all three program sources.
// ---------------------------------------------------------------------

TEST(DifferentialGate, Corpus)
{
    int fullyOrdered = 0;
    for (const std::string &file : corpusFiles()) {
        litmus::Test test = loadCorpus(file);
        analysis::Report rep = analysis::analyze(test);
        if (!rep.fullyOrdered)
            continue;
        ++fullyOrdered;
        auto sc = analysis::enumerateSc(test);
        ASSERT_TRUE(sc.has_value()) << file;
        mc::ExploreResult exact =
            exploreTest(test, "Titan", 16, {});
        ASSERT_TRUE(exact.complete) << file;
        expectScEquivalent(exact, *sc, file);
    }
    // Non-vacuity: the fully-ordered class is inhabited (mp-deps,
    // mp-membar.gl), so the gate actually gated something.
    EXPECT_GE(fullyOrdered, 2);
}

TEST(DifferentialGate, ScenarioVariants)
{
    int fullyOrdered = 0;
    for (const std::string &spec : variantSpecs()) {
        std::string error;
        auto built = scenario::buildSpec(spec, &error);
        ASSERT_TRUE(built.has_value()) << error;
        analysis::Report rep = analysis::analyze(built->test);
        if (!rep.fullyOrdered)
            continue;
        ++fullyOrdered;
        analysis::ScOptions scOpts;
        scOpts.maxStates = 1u << 22;
        auto sc = analysis::enumerateSc(built->test, scOpts);
        ASSERT_TRUE(sc.has_value()) << spec;
        mc::ExploreOptions opts;
        opts.machine.maxMicroSteps = built->maxMicroSteps;
        opts.maxReplays = 1u << 16;
        opts.maxStates = 1u << 24;
        mc::ExploreResult exact =
            exploreTest(built->test, "TesC", 16, opts);
        expectScEquivalent(exact, *sc, spec);
    }
    // At least the three fenced acceptance scenarios land here.
    EXPECT_GE(fullyOrdered, 3);
}

TEST(DifferentialGate, GeneratedPrograms)
{
    gen::GeneratorOptions gopts;
    gopts.maxEdges = 4;
    gopts.maxTests = 250;
    auto tests = gen::generate(gen::defaultPool(), gopts);
    ASSERT_EQ(tests.size(), 250u);
    int fullyOrdered = 0;
    for (const auto &g : tests) {
        analysis::Report rep = analysis::analyze(g.test);
        if (!rep.fullyOrdered)
            continue;
        ++fullyOrdered;
        auto sc = analysis::enumerateSc(g.test);
        ASSERT_TRUE(sc.has_value()) << g.cycleName;
        mc::ExploreResult exact =
            exploreTest(g.test, "Titan", 16, {});
        ASSERT_TRUE(exact.complete) << g.cycleName;
        expectScEquivalent(exact, *sc, g.cycleName);
    }
    EXPECT_GE(fullyOrdered, 10);
}

// ---------------------------------------------------------------------
// The explorer pre-pass in the mc backend.
// ---------------------------------------------------------------------

TEST(Prepass, BackendAnswersFullyOrderedFromScEnumeration)
{
    // mp-deps is fully ordered (membar.gl on the writer, the Fig. 13
    // artificial dependency on the reader), so the pre-pass must
    // answer it without a single explorer replay — and the answer
    // must match the full exploration semantically.
    harness::Job job;
    job.backend = harness::kMcBackend;
    job.chip = sim::chip("Titan");
    job.test = loadCorpus("mp-deps.litmus");
    job.inc = sim::Incantations::fromColumn(16);

    eval::McBackend backend;
    ::unsetenv("GPULITMUS_MC_NO_PREPASS");
    eval::EvalResult pre = backend.evaluate(job);
    ASSERT_TRUE(pre.hasExact());
    EXPECT_EQ(pre.exact->stats.replays, 0u)
        << "pre-pass did not fire on a fully-ordered program";
    EXPECT_TRUE(pre.exact->complete);

    ::setenv("GPULITMUS_MC_NO_PREPASS", "1", 1);
    eval::EvalResult full = backend.evaluate(job);
    ::unsetenv("GPULITMUS_MC_NO_PREPASS");
    ASSERT_TRUE(full.hasExact());
    EXPECT_GT(full.exact->stats.replays, 0u)
        << "kill-switch did not force the full exploration";
    ASSERT_TRUE(full.exact->complete);

    // The semantic contract: reachable set, satisfying set and
    // verdict identical; only search statistics and path weights may
    // differ (which is why the knob is excluded from cache keys).
    EXPECT_EQ(keysOf(pre.exact->finals), keysOf(full.exact->finals));
    EXPECT_EQ(pre.exact->satisfying, full.exact->satisfying);
    EXPECT_EQ(pre.exact->verdict(job.test),
              full.exact->verdict(job.test));
}

TEST(Prepass, RacyProgramsStillExplore)
{
    harness::Job job;
    job.backend = harness::kMcBackend;
    job.chip = sim::chip("Titan");
    job.test = loadCorpus("mp.litmus");
    job.inc = sim::Incantations::fromColumn(16);
    eval::McBackend backend;
    eval::EvalResult r = backend.evaluate(job);
    ASSERT_TRUE(r.hasExact());
    // mp is proven racy: the pre-pass must stand aside and the weak
    // exploration must find the relaxed outcome.
    EXPECT_GT(r.exact->stats.replays, 0u);
    EXPECT_FALSE(r.exact->satisfying.empty());
}

// ---------------------------------------------------------------------
// Generator steering.
// ---------------------------------------------------------------------

TEST(Steering, SortsByPredictedRacyPairsPreservingTheSet)
{
    gen::GeneratorOptions plain;
    plain.maxEdges = 4;
    plain.maxTests = 60;
    auto base = gen::generate(gen::defaultPool(), plain);

    gen::GeneratorOptions steered = plain;
    steered.steer = true;
    auto ranked = gen::generate(gen::defaultPool(), steered);

    ASSERT_EQ(base.size(), ranked.size());
    std::set<std::string> baseNames, rankedNames;
    for (const auto &g : base) {
        EXPECT_EQ(g.predictedRacyPairs, -1); // unscored by default
        baseNames.insert(g.cycleName);
    }
    for (const auto &g : ranked) {
        EXPECT_GE(g.predictedRacyPairs, 0);
        rankedNames.insert(g.cycleName);
    }
    // Steering reorders; it never adds, drops or rewrites tests.
    EXPECT_EQ(baseNames, rankedNames);
    for (size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].predictedRacyPairs,
                  ranked[i].predictedRacyPairs)
            << "steered order not descending at " << i;
    // The steering is useful: the head of the ranked list predicts
    // strictly more races than the tail.
    EXPECT_GT(ranked.front().predictedRacyPairs,
              ranked.back().predictedRacyPairs);
}

} // namespace
} // namespace gpulitmus
