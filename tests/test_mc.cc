/**
 * @file
 * Tests for the exhaustive schedule explorer (mc/) and its eval-layer
 * integration:
 *
 * - the ChoicePoint refactor left the sampling machine bit-identical
 *   (golden histograms captured from the pre-refactor simulator);
 * - the explorer computes exact reachable sets that agree with the
 *   PTX model and with the sampler;
 * - sleep sets and state caching are pure pruning (the reachable set
 *   is invariant under every on/off combination);
 * - budgets degrade to sound bounded results;
 * - McBackend/eval::Engine/ConformanceSink upgrade imprecise cells
 *   to rare/unreachable/bounded verdicts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cat/models.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "model/checker.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus {
namespace {

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

mc::ExploreResult
explore(const std::string &corpus_file, const std::string &chip,
        int column, mc::ExploreOptions opts = {})
{
    litmus::Test test = loadCorpus(corpus_file);
    opts.machine.inc = sim::Incantations::fromColumn(column);
    mc::Explorer explorer(sim::chip(chip), test, opts);
    return explorer.explore();
}

// ---------------------------------------------------------------------
// ChoicePoint refactor: the sampler is bit-identical to the
// pre-refactor machine. The expected values are golden histograms
// captured from the seed (pre-ChoiceProvider) build at seed 12345.
// ---------------------------------------------------------------------

uint64_t
countOf(const litmus::Histogram &hist, const std::string &key)
{
    auto it = hist.counts().find(key);
    return it == hist.counts().end() ? 0 : it->second;
}

TEST(ChoiceRefactor, SamplerBitIdenticalToGoldenMp)
{
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::RunConfig cfg;
    cfg.iterations = 5000;
    cfg.seed = 12345;
    cfg.inc = sim::Incantations::fromColumn(16);
    litmus::Histogram hist =
        harness::run(sim::chip("Titan"), mp, cfg);
    EXPECT_EQ(countOf(hist, "1:r1=0; 1:r2=0;"), 1899u);
    EXPECT_EQ(countOf(hist, "1:r1=0; 1:r2=1;"), 1652u);
    EXPECT_EQ(countOf(hist, "1:r1=1; 1:r2=0;"), 123u);
    EXPECT_EQ(countOf(hist, "1:r1=1; 1:r2=1;"), 1326u);
}

TEST(ChoiceRefactor, SamplerBitIdenticalToGoldenAcrossColumns)
{
    litmus::Test mp = loadCorpus("mp.litmus");
    const struct
    {
        int column;
        uint64_t observed;
    } golden[] = {{1, 0}, {6, 16}, {8, 72}, {12, 157}, {16, 123}};
    for (const auto &g : golden) {
        harness::RunConfig cfg;
        cfg.iterations = 5000;
        cfg.seed = 12345;
        cfg.inc = sim::Incantations::fromColumn(g.column);
        litmus::Histogram hist =
            harness::run(sim::chip("Titan"), mp, cfg);
        EXPECT_EQ(hist.observed(), g.observed)
            << "column " << g.column;
    }
}

TEST(ChoiceRefactor, SamplerBitIdenticalToGoldenOtherTests)
{
    const struct
    {
        const char *file;
        uint64_t observed;
    } golden[] = {{"sb.litmus", 174},
                  {"corr.litmus", 515},
                  {"lb.litmus", 31},
                  {"cas-sl.litmus", 17},
                  {"corr-l2-l1.litmus", 3}};
    for (const auto &g : golden) {
        litmus::Test test = loadCorpus(g.file);
        harness::RunConfig cfg;
        cfg.iterations = 5000;
        cfg.seed = 12345;
        cfg.inc = sim::Incantations::fromColumn(16);
        litmus::Histogram hist =
            harness::run(sim::chip("Titan"), test, cfg);
        EXPECT_EQ(hist.observed(), g.observed) << g.file;
    }
}

TEST(ChoiceRefactor, RngChoiceMatchesRawRngDraws)
{
    // One pick()/chance() consumes exactly one below()/chance().
    Rng a(7), b(7);
    sim::RngChoice choice(a);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(choice.pick(sim::ChoiceKind::Schedule, 7),
                  b.below(7));
        EXPECT_EQ(choice.chance(sim::ChoiceKind::CommitBypass, 0.4),
                  b.chance(0.4));
    }
    EXPECT_EQ(choice.delayBump(), 2 + static_cast<int>(b.below(4)));
}

// ---------------------------------------------------------------------
// Explorer: exact reachable sets.
// ---------------------------------------------------------------------

TEST(Explorer, MpTitanReachesExactlyThePtxAllowedSet)
{
    mc::ExploreResult r = explore("mp.litmus", "Titan", 16);
    ASSERT_TRUE(r.complete);
    // The PR-3 pruning anchor: checkpointing and digest keys must
    // not change what gets explored, only how fast.
    EXPECT_EQ(r.stats.replays, 4400u);
    litmus::Test mp = loadCorpus("mp.litmus");
    model::Verdict v = model::Checker(cat::models::ptx()).check(mp);
    std::set<std::string> reached;
    for (const auto &[key, weight] : r.finals) {
        EXPECT_GT(weight, 0u);
        reached.insert(key);
    }
    EXPECT_EQ(reached, v.allowedKeys);
    // The weak outcome is reachable and satisfies the condition.
    EXPECT_TRUE(r.satisfying.count("1:r1=1; 1:r2=0;"));
    EXPECT_EQ(r.verdict(mp), "Ok");
}

TEST(Explorer, StrongChipCannotReachWeakMp)
{
    // GTX5's machine has no engaged reordering for inter-CTA mp: the
    // weak outcome is *provably* unreachable, not merely unsampled.
    mc::ExploreResult r = explore("mp.litmus", "GTX5", 16);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.finals.size(), 3u);
    EXPECT_FALSE(r.reachable("1:r1=1; 1:r2=0;"));
    // The PTX model still allows it: model slack, demonstrated
    // exactly rather than statistically.
    litmus::Test mp = loadCorpus("mp.litmus");
    model::Verdict v = model::Checker(cat::models::ptx()).check(mp);
    EXPECT_TRUE(v.allowedKeys.count("1:r1=1; 1:r2=0;"));
}

TEST(Explorer, IncantationsGateTheReachableSet)
{
    // Column 1 (no incantations) never engages Titan's reordering
    // machinery; column 16 does. Exactly as Tab. 6 samples it.
    mc::ExploreResult plain = explore("mp.litmus", "Titan", 1);
    ASSERT_TRUE(plain.complete);
    EXPECT_FALSE(plain.reachable("1:r1=1; 1:r2=0;"));
    mc::ExploreResult full = explore("mp.litmus", "Titan", 16);
    ASSERT_TRUE(full.complete);
    EXPECT_TRUE(full.reachable("1:r1=1; 1:r2=0;"));
}

TEST(Explorer, SamplerNeverEscapesTheExactSet)
{
    // 2000 sampled runs all land inside the explored reachable set —
    // the cross-engine consistency the ConformanceSink also checks.
    for (const char *file : {"mp.litmus", "sb.litmus", "lb.litmus",
                             "cas-sl.litmus"}) {
        litmus::Test test = loadCorpus(file);
        mc::ExploreResult r = explore(file, "Titan", 16);
        ASSERT_TRUE(r.complete) << file;
        harness::RunConfig cfg;
        cfg.iterations = 2000;
        cfg.inc = sim::Incantations::fromColumn(16);
        litmus::Histogram hist =
            harness::run(sim::chip("Titan"), test, cfg);
        for (const auto &[key, count] : hist.counts()) {
            if (count > 0) {
                EXPECT_TRUE(r.reachable(key))
                    << file << ": sampled '" << key
                    << "' escaped the exploration";
            }
        }
    }
}

TEST(Explorer, PruningIsInvisibleInTheReachableSet)
{
    // Sleep sets and state caching are pure pruning: every on/off
    // combination reaches the same final states. (The unpruned tree
    // is big; column 6 keeps the raw enumeration CI-sized.)
    for (const char *file : {"mp.litmus", "sb.litmus"}) {
        std::set<std::string> base;
        uint64_t base_replays = 0;
        for (int mode = 0; mode < 4; ++mode) {
            mc::ExploreOptions opts;
            opts.sleepSets = mode & 1;
            opts.stateCache = mode & 2;
            opts.maxReplays = 4u << 20;
            mc::ExploreResult r = explore(file, "Titan", 6, opts);
            ASSERT_TRUE(r.complete) << file << " mode " << mode;
            std::set<std::string> keys;
            for (const auto &[key, weight] : r.finals)
                keys.insert(key);
            if (mode == 0) {
                base = keys;
                base_replays = r.stats.replays;
            } else {
                EXPECT_EQ(keys, base) << file << " mode " << mode;
            }
            // Full pruning must not exceed the unpruned effort.
            if (mode == 3) {
                EXPECT_LE(r.stats.replays, base_replays) << file;
            }
        }
    }
}

TEST(Explorer, BudgetDegradesToSoundBoundedResult)
{
    mc::ExploreOptions bounded;
    bounded.maxReplays = 40;
    mc::ExploreResult partial =
        explore("mp.litmus", "Titan", 16, bounded);
    EXPECT_FALSE(partial.complete);
    EXPECT_FALSE(partial.finals.empty());

    mc::ExploreResult full = explore("mp.litmus", "Titan", 16);
    ASSERT_TRUE(full.complete);
    // Sound lower bound: everything the bounded search reached is
    // genuinely reachable.
    for (const auto &[key, weight] : partial.finals)
        EXPECT_TRUE(full.reachable(key)) << key;
}

TEST(Explorer, DeterministicAcrossRuns)
{
    mc::ExploreResult a = explore("lb.litmus", "Titan", 16);
    mc::ExploreResult b = explore("lb.litmus", "Titan", 16);
    EXPECT_EQ(a.finals, b.finals);
    EXPECT_EQ(a.stats.replays, b.stats.replays);
    EXPECT_EQ(a.stats.stateCuts, b.stats.stateCuts);
    EXPECT_EQ(a.stats.sleepSkips, b.stats.sleepSkips);
}

TEST(Explorer, CheckpointingIsInvisibleInTraversalAndResults)
{
    // Checkpoint resume and digest keys are pure wall-clock
    // machinery: all four on/off combinations must traverse the
    // identical tree — same reachable sets, same replay counts, same
    // pruning statistics, same completeness.
    for (const char *file :
         {"mp.litmus", "sb.litmus", "corr.litmus", "cas-sl.litmus"}) {
        mc::ExploreResult base;
        for (int mode = 0; mode < 4; ++mode) {
            mc::ExploreOptions opts;
            opts.checkpoints = mode & 1;
            opts.debugStateKeys = mode & 2;
            mc::ExploreResult r = explore(file, "Titan", 16, opts);
            if (mode == 0) {
                base = r;
                continue;
            }
            EXPECT_EQ(r.finals, base.finals) << file << " " << mode;
            EXPECT_EQ(r.satisfying, base.satisfying)
                << file << " " << mode;
            EXPECT_EQ(r.complete, base.complete)
                << file << " " << mode;
            EXPECT_EQ(r.stats.replays, base.stats.replays)
                << file << " " << mode;
            EXPECT_EQ(r.stats.choicePoints, base.stats.choicePoints)
                << file << " " << mode;
            EXPECT_EQ(r.stats.stateCuts, base.stats.stateCuts)
                << file << " " << mode;
            EXPECT_EQ(r.stats.sleepSkips, base.stats.sleepSkips)
                << file << " " << mode;
            EXPECT_EQ(r.stats.distinctStates,
                      base.stats.distinctStates)
                << file << " " << mode;
            EXPECT_EQ(r.stats.peakDepth, base.stats.peakDepth)
                << file << " " << mode;
        }
    }
}

TEST(Explorer, HashKeysAgreeWithStringKeysOverTheFullCorpus)
{
    // The 128-bit digest keys (fast path) and the PR-3 string keys
    // (debug path) must drive identical explorations over every
    // corpus test — the cross-check the debugStateKeys flag exists
    // for. Budget-capped so pathological imports stay CI-sized;
    // bounded results must agree too.
    namespace fs = std::filesystem;
    std::string dir =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests";
    size_t checked = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".litmus")
            continue;
        std::string file = entry.path().filename().string();
        mc::ExploreOptions fast;
        fast.maxReplays = 200000;
        mc::ExploreOptions debug = fast;
        debug.debugStateKeys = true;
        mc::ExploreResult a = explore(file, "Titan", 16, fast);
        mc::ExploreResult b = explore(file, "Titan", 16, debug);
        EXPECT_EQ(a.finals, b.finals) << file;
        EXPECT_EQ(a.satisfying, b.satisfying) << file;
        EXPECT_EQ(a.complete, b.complete) << file;
        EXPECT_EQ(a.stats.replays, b.stats.replays) << file;
        EXPECT_EQ(a.stats.stateCuts, b.stats.stateCuts) << file;
        EXPECT_EQ(a.stats.distinctStates, b.stats.distinctStates)
            << file;
        ++checked;
    }
    // The corpus ships 20 tests; make sure the sweep saw them.
    EXPECT_GE(checked, 20u);
}

TEST(Explorer, SpinLoopTerminatesViaStateCache)
{
    // An unbounded spin has an infinite choice tree; revisit cuts
    // close it. The weak outcome (load of y reordered before the
    // spin's last x read) stays reachable under stress.
    const char *text = R"(GPU_PTX spin
{global x=0; global y=0;}
 T0              | T1                  ;
 st.cg.s32 [y],1 | LOOP:               ;
 st.cg.s32 [x],1 | ld.cg.s32 r1,[x]    ;
                 | setp.eq.s32 p0,r1,0 ;
                 | @p0 bra LOOP        ;
                 | ld.cg.s32 r2,[y]    ;
ScopeTree(grid(cta((warp T0)) cta((warp T1))))
exists ((1:r2=0))
)";
    auto test = litmus::parseTest(text);
    ASSERT_TRUE(test.has_value());
    mc::ExploreOptions opts;
    opts.machine.inc = sim::Incantations::fromColumn(16);
    mc::ExploreResult r =
        mc::Explorer(sim::chip("Titan"), *test, opts).explore();
    // Far below the budget: the cycle cuts terminate the search.
    EXPECT_LT(r.stats.replays, 100000u);
    EXPECT_TRUE(r.reachable("1:r2=0;"));
    EXPECT_TRUE(r.reachable("1:r2=1;"));
    // Loop states dedup across fetch-counter values, which trades
    // the exactness claim away: a spin test is honestly "bounded".
    EXPECT_FALSE(r.complete);
}

// ---------------------------------------------------------------------
// Eval integration: McBackend, job keys, conformance upgrades.
// ---------------------------------------------------------------------

TEST(McBackend, RegistryResolvesMcAndAlias)
{
    auto mc_backend = eval::backendByName("mc");
    ASSERT_TRUE(mc_backend);
    EXPECT_EQ(mc_backend->name(), "mc");
    auto alias = eval::backendByName("exhaustive");
    ASSERT_TRUE(alias);
    EXPECT_EQ(alias->name(), "mc");
    // mc is not a model backend.
    std::string error;
    EXPECT_FALSE(eval::modelBackendByName("mc", &error));
    EXPECT_NE(error.find("not a model"), std::string::npos);
    // And it is advertised.
    auto names = eval::builtinBackendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "mc"),
              names.end());
    auto models = eval::builtinModelNames();
    EXPECT_EQ(std::find(models.begin(), models.end(), "mc"),
              models.end());
}

TEST(McBackend, JobKeySemantics)
{
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Job job;
    job.backend = harness::kMcBackend;
    job.chip = sim::chip("Titan");
    job.test = mp;
    EXPECT_TRUE(job.isMc());
    EXPECT_FALSE(job.isSim());
    EXPECT_EQ(job.displayLabel(), "mp@Titan#mc");

    // Deterministic search: the seed axis is excluded...
    harness::Job reseeded = job;
    reseeded.seed ^= 0xdeadbeef;
    EXPECT_EQ(job.key(), reseeded.key());
    // ...but chip and incantation shape the machine, and the budget
    // shapes completeness.
    harness::Job other_chip = job;
    other_chip.chip = sim::chip("GTX5");
    EXPECT_NE(job.key(), other_chip.key());
    harness::Job other_col = job;
    other_col.inc = sim::Incantations::fromColumn(3);
    EXPECT_NE(job.key(), other_col.key());
    harness::Job other_budget = job;
    other_budget.iterations = 42;
    EXPECT_EQ(job.key(), other_budget.key());
    EXPECT_NE(job.cacheKey(), other_budget.cacheKey());
}

TEST(McBackend, EngineRunsAndCachesMcJobs)
{
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Job job;
    job.backend = harness::kMcBackend;
    job.chip = sim::chip("Titan");
    job.test = mp;
    job.inc = sim::Incantations::fromColumn(16);

    eval::Engine engine(eval::EngineOptions{2, true});
    auto first = engine.run({job});
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(first[0].hasExact());
    EXPECT_FALSE(first[0].hasHist());
    EXPECT_TRUE(first[0].exact->complete);
    EXPECT_EQ(first[0].exact->finals.size(), 4u);
    EXPECT_FALSE(first[0].fromCache);

    auto second = engine.run({job});
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].fromCache);
    EXPECT_EQ(second[0].exact->finals, first[0].exact->finals);
    EXPECT_GE(engine.cacheHits(), 1u);
}

TEST(McBackend, CampaignOverBackendsMixesSimMcAndModels)
{
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Campaign campaign;
    campaign.iterations(200);
    campaign.test(mp, "mp");
    campaign.overChips(std::vector<std::string>{"Titan", "GTX5"});
    campaign.overBackends({harness::kSimBackend,
                           harness::kMcBackend, "ptx"});
    auto jobs = campaign.jobs();
    ASSERT_EQ(jobs.size(), 6u);

    // The mc grid cells keep the sampling iteration count as their
    // replay budget — plenty here (mp completes in thousands).
    for (auto &job : jobs) {
        if (job.isMc())
            job.iterations = 1u << 20;
    }

    eval::ConformanceSink conformance;
    eval::Engine engine(eval::EngineOptions{2, true});
    engine.run(jobs, {&conformance});

    // 2 chips x 1 model verdict per chip cell (sim+exact collapse
    // into one upgraded cell per chip).
    ASSERT_EQ(conformance.cells().size(), 2u);
    EXPECT_EQ(conformance.count(eval::Conformance::Unsound), 0u);
    EXPECT_EQ(conformance.inconsistentCells(), 0u);
    for (const auto &cell : conformance.cells())
        EXPECT_TRUE(cell.hasExact) << cell.chip;
}

TEST(Conformance, ImpreciseUpgradesToRareWithWeight)
{
    // 50 samples at this seed miss the weak mp outcome (golden:
    // observed 0/50), so sampling alone says "imprecise". The
    // exploration proves the outcome reachable: the verdict upgrades
    // to rare, carrying the explorer's path weight.
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Job sim_job;
    sim_job.chip = sim::chip("Titan");
    sim_job.test = mp;
    sim_job.inc = sim::Incantations::fromColumn(16);
    sim_job.iterations = 50;
    sim_job.seed = 0x6c69;
    sim_job.label = "mp";

    harness::Job mc_job = sim_job;
    mc_job.backend = harness::kMcBackend;
    mc_job.iterations = 1u << 20;
    harness::Job model_job = sim_job;
    model_job.backend = "ptx";

    eval::ConformanceSink sink;
    eval::Engine engine(eval::EngineOptions{2, true});
    engine.run({sim_job, mc_job, model_job}, {&sink});

    ASSERT_EQ(sink.cells().size(), 1u);
    const eval::ConformanceCell &cell = sink.cells()[0];
    ASSERT_EQ(cell.kind, eval::Conformance::Rare)
        << "observed-but-unsampled precondition changed?";
    EXPECT_TRUE(cell.hasExact);
    EXPECT_TRUE(cell.exactComplete);
    ASSERT_FALSE(cell.rare.empty());
    bool weak_rare = false;
    for (const auto &[key, weight] : cell.rare) {
        if (key == "1:r1=1; 1:r2=0;") {
            weak_rare = true;
            EXPECT_GT(weight, 0u);
        }
    }
    EXPECT_TRUE(weak_rare);
    EXPECT_TRUE(cell.unobserved.empty());
    EXPECT_TRUE(cell.violations.empty());
    EXPECT_EQ(sink.count(eval::Conformance::Rare), 1u);
}

TEST(Conformance, ImpreciseUpgradesToUnreachableOnStrongChip)
{
    // GTX5 cannot produce weak mp at all: the allowed-but-unobserved
    // outcome upgrades to a definitive "unreachable".
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Job sim_job;
    sim_job.chip = sim::chip("GTX5");
    sim_job.test = mp;
    sim_job.inc = sim::Incantations::fromColumn(16);
    sim_job.iterations = 400;
    sim_job.label = "mp";

    harness::Job mc_job = sim_job;
    mc_job.backend = harness::kMcBackend;
    mc_job.iterations = 1u << 20;
    harness::Job model_job = sim_job;
    model_job.backend = "ptx";

    eval::ConformanceSink sink;
    eval::Engine engine(eval::EngineOptions{2, true});
    engine.run({sim_job, mc_job, model_job}, {&sink});

    ASSERT_EQ(sink.cells().size(), 1u);
    const eval::ConformanceCell &cell = sink.cells()[0];
    EXPECT_EQ(cell.kind, eval::Conformance::Unreachable);
    ASSERT_FALSE(cell.unreachable.empty());
    EXPECT_EQ(cell.unreachable[0], "1:r1=1; 1:r2=0;");
    EXPECT_TRUE(cell.violations.empty());
    EXPECT_EQ(sink.count(eval::Conformance::Unreachable), 1u);
}

TEST(Conformance, BudgetExhaustionYieldsBoundedCell)
{
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Job sim_job;
    sim_job.chip = sim::chip("GTX5");
    sim_job.test = mp;
    sim_job.inc = sim::Incantations::fromColumn(16);
    sim_job.iterations = 50;
    sim_job.seed = 0x6c69;
    sim_job.label = "mp";

    harness::Job mc_job = sim_job;
    mc_job.backend = harness::kMcBackend;
    mc_job.iterations = 5; // trip the budget immediately
    harness::Job model_job = sim_job;
    model_job.backend = "ptx";

    eval::ConformanceSink sink;
    eval::Engine engine(eval::EngineOptions{1, true});
    engine.run({sim_job, mc_job, model_job}, {&sink});

    ASSERT_EQ(sink.cells().size(), 1u);
    const eval::ConformanceCell &cell = sink.cells()[0];
    EXPECT_EQ(cell.kind, eval::Conformance::Bounded);
    EXPECT_TRUE(cell.hasExact);
    EXPECT_FALSE(cell.exactComplete);
    EXPECT_FALSE(cell.unobserved.empty());
}

TEST(Conformance, McOnlyCellsClassifyFromTheExactSet)
{
    // No sim histogram at all: the exploration is the observation.
    litmus::Test mp = loadCorpus("mp.litmus");
    harness::Job mc_job;
    mc_job.backend = harness::kMcBackend;
    mc_job.chip = sim::chip("Titan");
    mc_job.test = mp;
    mc_job.inc = sim::Incantations::fromColumn(16);
    mc_job.iterations = 1u << 20;
    mc_job.label = "mp";
    harness::Job model_job = mc_job;
    model_job.backend = "ptx";

    eval::ConformanceSink sink;
    eval::Engine engine(eval::EngineOptions{2, true});
    engine.run({mc_job, model_job}, {&sink});

    ASSERT_EQ(sink.cells().size(), 1u);
    const eval::ConformanceCell &cell = sink.cells()[0];
    // Titan reaches the full ptx-allowed set for mp: exact match.
    EXPECT_EQ(cell.kind, eval::Conformance::Sound);
    EXPECT_EQ(cell.runs, 0u);
    EXPECT_TRUE(cell.hasExact);
}

TEST(Conformance, ExactSetAgreesWithPtxOnCorpusSample)
{
    // The acceptance property in miniature: explorations of the
    // in-scope corpus on two chips produce no reachable-but-
    // forbidden state (0 unsound) and no sampling escapee.
    eval::ConformanceSink sink;
    eval::Engine engine(eval::EngineOptions{2, true});
    std::vector<harness::Job> jobs;
    for (const char *file :
         {"mp.litmus", "sb.litmus", "lb.litmus",
          "lb-membar.ctas.litmus", "mp-deps.litmus"}) {
        litmus::Test test = loadCorpus(file);
        for (const char *chip : {"Titan", "GTX7"}) {
            harness::Job mc_job;
            mc_job.backend = harness::kMcBackend;
            mc_job.chip = sim::chip(chip);
            mc_job.test = test;
            mc_job.inc = sim::Incantations::fromColumn(16);
            mc_job.iterations = 1u << 20;
            jobs.push_back(mc_job);
            harness::Job model_job = mc_job;
            model_job.backend = "ptx";
            jobs.push_back(model_job);
        }
    }
    auto results = engine.run(jobs, {&sink});
    for (const auto &r : results) {
        if (r.hasExact()) {
            EXPECT_TRUE(r.exact->complete) << r.label();
        }
    }
    EXPECT_EQ(sink.cells().size(), 10u);
    EXPECT_EQ(sink.count(eval::Conformance::Unsound), 0u);
    EXPECT_EQ(sink.inconsistentCells(), 0u);
}

} // namespace
} // namespace gpulitmus
