/**
 * @file
 * Tests for the Scenario API: the catalog's derivation from the paper
 * library, registry spec resolution, litmus round trips and pinned
 * texts of every registry scenario, exact (mc) verdicts
 * for the application bugs on weak chips, and the backend semantics
 * of planned scenario jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cuda/snippets.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "model/checker.h"
#include "scenario/catalog.h"
#include "scenario/registry.h"
#include "serve/protocol.h"

namespace gpulitmus::scenario {
namespace {

// ---------------------------------------------------------------------
// Catalog: the scenarios derived from paper-library tests keep their
// programs.
// ---------------------------------------------------------------------

TEST(Catalog, CatalogProgramsMatchCudaDistillations)
{
    // The registry scenarios reuse the Tab. 5 instruction encodings:
    // program text identical to the CUDA distillations, only the
    // name and the quantifier (forbid vs exists) differ.
    EXPECT_EQ(casSpinlock(false).program.str(),
              cuda::distillCasSpinLock(false).program.str());
    EXPECT_EQ(casSpinlock(true).program.str(),
              cuda::distillCasSpinLock(true).program.str());
    EXPECT_EQ(workStealingDeque(false).program.str(),
              cuda::distillDequeMp(false).program.str());
    EXPECT_EQ(workStealingDeque(true).program.str(),
              cuda::distillDequeMp(true).program.str());
    EXPECT_EQ(casSpinlock(false).quantifier,
              litmus::Quantifier::NotExists);
    EXPECT_EQ(casSpinlock(false).condition.str(),
              cuda::distillCasSpinLock(false).condition.str());
}

// ---------------------------------------------------------------------
// Registry: spec parsing and round trips.
// ---------------------------------------------------------------------

TEST(Registry, SpecResolutionAndErrors)
{
    EXPECT_TRUE(isSpec("scenario:seqlock"));
    EXPECT_FALSE(isSpec("litmus-tests/mp.litmus"));

    auto built = buildSpec("scenario:spinlock_dot_product,threads=3,"
                           "fenced=1");
    ASSERT_TRUE(built.has_value());
    EXPECT_EQ(built->test.name, "spinlock_dot_product+t3+fences");
    EXPECT_EQ(built->test.program.numThreads(), 3);
    EXPECT_EQ(built->maxMicroSteps, 20000);

    // A bare key is a boolean switch.
    auto bare = buildSpec("scenario:cas_spinlock,fenced");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->test.name, "cas_spinlock+fences");

    std::string error;
    EXPECT_FALSE(buildSpec("scenario:nope", &error).has_value());
    EXPECT_NE(error.find("unknown scenario"), std::string::npos);
    EXPECT_NE(error.find("spinlock_dot_product"), std::string::npos);
    EXPECT_FALSE(
        buildSpec("scenario:seqlock,bogus=1", &error).has_value());
    EXPECT_NE(error.find("unknown scenario parameter"),
              std::string::npos);
    EXPECT_FALSE(
        buildSpec("scenario:seqlock,fenced=maybe", &error)
            .has_value());
    // Out-of-range values are a recoverable error, not a fatal.
    EXPECT_FALSE(buildSpec("scenario:spinlock_dot_product,threads=9",
                           &error)
                     .has_value());
    EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(Registry, EveryScenarioRoundTripsThroughTheLitmusFormat)
{
    // build -> str -> parse -> str must be a fixed point: registry
    // scenarios (labels, spin loops, guards, volatile accesses,
    // negated conditions included) are full citizens of the on-disk
    // format.
    for (const auto &s : all()) {
        for (int fenced = 0; fenced <= 1; ++fenced) {
            auto built = buildSpec("scenario:" + s.name +
                                   ",fenced=" + std::to_string(fenced));
            ASSERT_TRUE(built.has_value()) << s.name;
            std::string text = built->test.str();
            litmus::ParseError err;
            auto reparsed = litmus::parseTest(text, &err);
            ASSERT_TRUE(reparsed.has_value())
                << s.name << ": " << err.message << "\n"
                << text;
            EXPECT_EQ(reparsed->str(), text) << s.name;
        }
    }
}

TEST(Registry, EveryVariantRendersItsPinnedText)
{
    // Sim seeds, job keys and store digests derive from the hash of a
    // test's rendered text: a scenario whose text moves orphans every
    // stored cell of it. These are the hashes of all 22 variants (each
    // scenario unfenced and fenced, the dot product at 2..6 threads).
    const std::vector<std::pair<std::string, uint64_t>> pins = {
        {"cas_spinlock,fenced=0", 0x95ac6dd5087b0d3dull},
        {"cas_spinlock,fenced=1", 0xdfe06bc8294ee417ull},
        {"work_stealing_deque,fenced=0", 0x73031c06a741f4c9ull},
        {"work_stealing_deque,fenced=1", 0x825155b0b4ae0eb6ull},
        {"ticket_lock,fenced=0", 0xe6eb609b77293b32ull},
        {"ticket_lock,fenced=1", 0x3f7957ec4d3f26e9ull},
        {"producer_consumer_ring,fenced=0", 0x0e9f4e07ca808655ull},
        {"producer_consumer_ring,fenced=1", 0x2e43b28cecd57f4full},
        {"flag_barrier,fenced=0", 0xf906f1060938a7a9ull},
        {"flag_barrier,fenced=1", 0x8062d2446d75bd24ull},
        {"seqlock,fenced=0", 0xedf1f4f2ef757fe8ull},
        {"seqlock,fenced=1", 0x17f42068ff8b2ca9ull},
        {"spinlock_dot_product,threads=2,fenced=0", 0xc6ebe3298eadd842ull},
        {"spinlock_dot_product,threads=2,fenced=1", 0x622e662e606dae03ull},
        {"spinlock_dot_product,threads=3,fenced=0", 0x637f64766245c5acull},
        {"spinlock_dot_product,threads=3,fenced=1", 0x1f7e060f0b35abe3ull},
        {"spinlock_dot_product,threads=4,fenced=0", 0xb6b0369f385c8e91ull},
        {"spinlock_dot_product,threads=4,fenced=1", 0xe9ff348606514854ull},
        {"spinlock_dot_product,threads=5,fenced=0", 0x60e706dda1452249ull},
        {"spinlock_dot_product,threads=5,fenced=1", 0x5f0727699ac38632ull},
        {"spinlock_dot_product,threads=6,fenced=0", 0xe4bfc4aa48a5c38cull},
        {"spinlock_dot_product,threads=6,fenced=1", 0x5b02562492c378cbull},
    };
    size_t variants = 0;
    for (const auto &s : all())
        variants += s.name == "spinlock_dot_product" ? 10 : 2;
    EXPECT_EQ(pins.size(), variants);
    for (const auto &[spec, hash] : pins) {
        auto built = buildSpec("scenario:" + spec);
        ASSERT_TRUE(built.has_value()) << spec;
        EXPECT_EQ(harness::TestText::of(built->test)->hash, hash)
            << spec << "\n"
            << built->test.str();
    }
}

TEST(Registry, ScenariosDeclareTheirBugAsForbidden)
{
    for (const auto &s : all()) {
        auto built = buildSpec("scenario:" + s.name);
        ASSERT_TRUE(built.has_value());
        EXPECT_EQ(built->test.quantifier,
                  litmus::Quantifier::NotExists)
            << s.name;
        EXPECT_GE(all().size(), 6u);
    }
}

// ---------------------------------------------------------------------
// Exact verdicts: the paper's application bugs, settled by the
// explorer on weak chip profiles.
// ---------------------------------------------------------------------

mc::ExploreResult
explore(const litmus::Test &test, const char *chip,
        int max_micro_steps)
{
    mc::ExploreOptions opts;
    opts.machine.maxMicroSteps = max_micro_steps;
    return mc::Explorer(sim::chip(chip), test, opts).explore();
}

TEST(ExactVerdicts, UnfencedSpinLockLosesUpdatesFencedProvenSafe)
{
    // The bug, definitively: a concrete schedule reaches a wrong sum
    // on the weak Tesla C2075.
    mc::ExploreResult buggy =
        explore(spinlockDotProduct(2, false), "TesC", 20000);
    EXPECT_FALSE(buggy.satisfying.empty());

    // The fix, definitively: with the (+) fences no terminating
    // execution loses an update (spin loops are explored modulo the
    // runaway guard — fairComplete).
    mc::ExploreResult fixed =
        explore(spinlockDotProduct(2, true), "TesC", 20000);
    EXPECT_TRUE(fixed.satisfying.empty());
    EXPECT_TRUE(fixed.fairComplete);
}

TEST(ExactVerdicts, UnfencedDequeLosesTasksFencedExactUnreachable)
{
    // The deque distillation is loop-free: the fenced variant gets
    // the full exact-unreachable proof, not just the fair one.
    mc::ExploreResult buggy =
        explore(workStealingDeque(false), "Titan", 4000);
    EXPECT_FALSE(buggy.satisfying.empty());

    mc::ExploreResult fixed =
        explore(workStealingDeque(true), "Titan", 4000);
    EXPECT_TRUE(fixed.satisfying.empty());
    EXPECT_TRUE(fixed.complete);
    EXPECT_TRUE(fixed.fairComplete);
}

TEST(ExactVerdicts, EveryFencedVariantProvenSafeOnTesC)
{
    // The fence variants are the fixes: on the weak Tesla C2075 no
    // terminating execution of any of them reaches its forbidden
    // condition. The Explorer is called directly, so the proof comes
    // from exploration, not from the mc backend's static pre-pass.
    for (const auto &s : all()) {
        std::string spec = "scenario:" + s.name + ",fenced=1";
        std::string error;
        auto built = buildSpec(spec, &error);
        ASSERT_TRUE(built.has_value()) << error;
        mc::ExploreResult r =
            explore(built->test, "TesC", built->maxMicroSteps);
        EXPECT_TRUE(r.satisfying.empty()) << spec;
        EXPECT_TRUE(r.complete || r.fairComplete) << spec;
    }
}

TEST(ExactVerdicts, StrongChipNeverLosesUpdatesEvenUnfenced)
{
    // The GTX 750 (Maxwell) shows none of the weak behaviours: even
    // the unfenced lock never reaches a wrong sum.
    mc::ExploreResult r =
        explore(spinlockDotProduct(2, false), "GTX7", 20000);
    EXPECT_TRUE(r.satisfying.empty());
    EXPECT_TRUE(r.fairComplete);
}

// ---------------------------------------------------------------------
// Backend semantics of planned scenario jobs. (Job order and the
// micro-step floor are the planner's, pinned in test_serve.)
// ---------------------------------------------------------------------

/** The jobs a validate request with `exact` plans for `specs` on the
 * Titan: per test a sim cell, its exploration (`budget` replays) and
 * one job per model. */
std::vector<harness::Job>
validateExact(const std::vector<std::string> &specs,
              const std::vector<std::string> &models, uint64_t iterations,
              uint64_t budget, serve::Plan *plan)
{
    serve::Request req;
    req.cmd = "validate";
    for (const auto &spec : specs)
        req.tests.push_back({"", "", spec});
    req.chips = {"Titan"};
    req.models = models;
    req.iterations = iterations;
    req.seed = harness::kBaseSeed;
    req.budget = budget;
    req.exact = true;
    std::string error;
    EXPECT_TRUE(serve::planJobs(req, plan, &error)) << error;
    return plan->jobs;
}

TEST(ScenarioJobs, JobKeySemanticsPerBackend)
{
    serve::Plan plan;
    auto jobs = validateExact({"scenario:cas_spinlock"}, {"ptx"}, 1000,
                              1000, &plan);
    ASSERT_EQ(jobs.size(), 3u);
    ASSERT_EQ(jobs[0].backend, harness::kSimBackend);
    ASSERT_EQ(jobs[1].backend, harness::kMcBackend);
    ASSERT_EQ(jobs[2].backend, "ptx");

    // Sim keys move with the seed; mc and model keys do not (the
    // search and the model evaluation are deterministic).
    auto reseeded = [](harness::Job job) {
        job.seed ^= 0xabcdef;
        return job.key();
    };
    EXPECT_NE(jobs[0].key(), reseeded(jobs[0]));
    EXPECT_EQ(jobs[1].key(), reseeded(jobs[1]));
    EXPECT_EQ(jobs[2].key(), reseeded(jobs[2]));

    // The mc key keeps the chip axis; the model key drops it.
    auto rechipped = [](harness::Job job) {
        job.chip = sim::chip("TesC");
        return job.key();
    };
    EXPECT_NE(jobs[1].key(), rechipped(jobs[1]));
    EXPECT_EQ(jobs[2].key(), rechipped(jobs[2]));

    // The mc cache key carries the budget (iterations).
    harness::Job mc_job = jobs[1];
    uint64_t key_before = mc_job.cacheKey();
    mc_job.iterations *= 2;
    EXPECT_NE(mc_job.cacheKey(), key_before);
    EXPECT_EQ(mc_job.key(), jobs[1].key());
}

TEST(ScenarioJobs, AllScenariosUnderAllFourBackends)
{
    // The acceptance grid: every registry scenario through the
    // sampler, the explorer, the PTX model and the Sec. 6 baseline.
    // validate plans the scenarios inside the model scope; the rest
    // (volatile accesses or spin loops, Sec. 5.5) it leaves out of the
    // model join, so they get the same four jobs by hand. The model
    // backends answer those with an explicit out-of-scope refusal —
    // every job completes, nothing hangs, nothing joins as trivially
    // sound.
    std::vector<std::string> specs;
    for (const auto &s : all())
        specs.push_back("scenario:" + s.name);

    serve::Plan plan;
    auto jobs = validateExact(specs, {"ptx", "baseline"}, 200, 200000,
                              &plan);
    ASSERT_EQ(jobs.size(), (all().size() - plan.outOfScope) * 4);
    const std::vector<harness::Job> pattern(jobs.begin(),
                                            jobs.begin() + 4);
    for (const auto &spec : specs) {
        auto built = buildSpec(spec);
        ASSERT_TRUE(built.has_value()) << spec;
        if (model::inModelScope(built->test))
            continue;
        for (harness::Job job : pattern) {
            job.test = built->test;
            job.text.reset();
            job.label = built->test.name;
            job.maxMicroSteps = std::max(harness::Job{}.maxMicroSteps,
                                         built->maxMicroSteps);
            jobs.push_back(std::move(job));
        }
    }
    ASSERT_EQ(jobs.size(), all().size() * 4);

    eval::EngineOptions eopts;
    eopts.threads = 2;
    eval::Engine engine(eopts);
    auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    size_t in_scope_verdicts = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        EXPECT_EQ(r.backend, jobs[i].backend);
        if (r.backend == harness::kSimBackend) {
            ASSERT_TRUE(r.hasHist());
            EXPECT_EQ(r.hist->total(), 200u);
        } else if (r.backend == harness::kMcBackend) {
            ASSERT_TRUE(r.hasExact());
            EXPECT_FALSE(r.exact->finals.empty());
        } else {
            ASSERT_TRUE(r.hasVerdict());
            if (model::inModelScope(jobs[i].test)) {
                EXPECT_FALSE(r.verdict->outOfScope);
                EXPECT_GT(r.verdict->numCandidates, 0u);
                ++in_scope_verdicts;
            } else {
                EXPECT_TRUE(r.verdict->outOfScope);
                EXPECT_EQ(r.verdict->numCandidates, 0u);
            }
        }
    }
    // cas_spinlock and seqlock are loop-free .cg programs: both
    // models actually evaluate them.
    EXPECT_GE(in_scope_verdicts, 4u);
}

TEST(ScenarioJobs, UnknownSpecInCliStyleResolutionFails)
{
    std::string error;
    EXPECT_FALSE(buildSpec("scenario:", &error).has_value());
    EXPECT_FALSE(buildSpec("mp.litmus", &error).has_value());
    EXPECT_NE(error.find("not a scenario spec"), std::string::npos);
}

} // namespace
} // namespace gpulitmus::scenario
