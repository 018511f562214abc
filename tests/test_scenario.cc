/**
 * @file
 * Tests for the Scenario API: Builder lowering (structural equality
 * with the hand-written library tests), registry spec resolution,
 * litmus round trips of every registry scenario, exact (mc) verdicts
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
#include "scenario/builder.h"
#include "scenario/catalog.h"
#include "scenario/registry.h"
#include "serve/protocol.h"

namespace gpulitmus::scenario {
namespace {

// ---------------------------------------------------------------------
// Builder lowering: typed handles produce the same litmus::Test the
// hand-written library builds from PTX text.
// ---------------------------------------------------------------------

TEST(Builder, MpMatchesHandWrittenLibraryTest)
{
    Builder b("mp");
    Loc x = b.global("x", 0);
    Loc y = b.global("y", 0);
    Thread &t0 = b.thread();
    t0.st(x, 1).st(y, 1);
    Thread &t1 = b.thread();
    Reg r1 = t1.reg("r1");
    Reg r2 = t1.reg("r2");
    t1.ld(r1, y).ld(r2, x);
    litmus::Test built = b.allow(r1 == 1 && r2 == 0).build();

    EXPECT_EQ(built.str(), litmus::paperlib::mp().str());
}

TEST(Builder, CasSlMatchesHandWrittenLibraryTest)
{
    for (bool fences : {false, true}) {
        Builder b(fences ? "cas-sl+fences" : "cas-sl");
        Loc x = b.global("x", 0);
        Loc m = b.global("m", 1);
        Thread &t0 = b.thread();
        Reg r0 = t0.reg("r0");
        t0.st(x, 1);
        if (fences)
            t0.membar();
        t0.exch(r0, m, 0);
        Thread &t1 = b.thread();
        Reg r1 = t1.reg("r1");
        Reg p2 = t1.reg("p2");
        Reg r3 = t1.reg("r3");
        t1.cas(r1, m, 0, 1).setpEq(p2, r1, 0);
        if (fences)
            t1.membar().onlyIf(p2);
        t1.ld(r3, x).onlyIf(p2);
        litmus::Test built = b.allow(r1 == 0 && r3 == 0).build();

        EXPECT_EQ(built.str(),
                  litmus::paperlib::casSl(fences).str());
    }
}

TEST(Builder, CatalogProgramsMatchCudaDistillations)
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

TEST(Builder, ModifiersRewriteTheLastInstruction)
{
    Builder b("mods");
    Loc x = b.global("x", 0);
    Thread &t0 = b.thread();
    Reg r0 = t0.reg("r0");
    Reg p0 = t0.reg("p0");
    t0.ld(r0, x).volatile_();
    t0.setpEq(p0, r0, 0);
    t0.membar(ptx::Scope::Cta).unless(p0);
    t0.st(x, 1).ca().onlyIf(p0);
    litmus::Test test = b.allow(r0 == 0).build();

    const auto &instrs = test.program.threads[0].instrs;
    ASSERT_EQ(instrs.size(), 4u);
    EXPECT_TRUE(instrs[0].isVolatile);
    EXPECT_EQ(instrs[0].cacheOp, ptx::CacheOp::None);
    EXPECT_EQ(instrs[2].scope, ptx::Scope::Cta);
    EXPECT_TRUE(instrs[2].hasGuard);
    EXPECT_TRUE(instrs[2].guardNegated);
    EXPECT_EQ(instrs[3].cacheOp, ptx::CacheOp::Ca);
    EXPECT_TRUE(instrs[3].hasGuard);
    EXPECT_FALSE(instrs[3].guardNegated);
}

TEST(Builder, DependencyModifierEmitsFig13Shapes)
{
    // Data dependency: the store value routes through and/add on the
    // source register; address dependency: the load address routes
    // through cvt/add onto an address-initialised register.
    Builder b("deps");
    Loc x = b.global("x", 0);
    Loc y = b.global("y", 0);
    Thread &t0 = b.thread();
    Reg r1 = t0.reg("r1");
    t0.ld(r1, x);
    t0.st(y, 1).dependsOn(r1);
    Reg r2 = t0.reg("r2");
    t0.ld(r2, x).dependsOn(r1);
    litmus::Test test = b.allow(r1 == 1).build();

    // ld; [and, add, st] (data dep); [and, cvt, add, ld] (addr dep).
    const auto &instrs = test.program.threads[0].instrs;
    ASSERT_EQ(instrs.size(), 8u);
    EXPECT_EQ(instrs[1].op, ptx::Opcode::And);
    EXPECT_EQ(instrs[2].op, ptx::Opcode::Add);
    EXPECT_EQ(instrs[3].op, ptx::Opcode::St);
    EXPECT_TRUE(instrs[3].srcs[0].isReg());
    EXPECT_EQ(instrs[5].op, ptx::Opcode::Cvt);
    EXPECT_EQ(instrs[7].op, ptx::Opcode::Ld);
    EXPECT_TRUE(instrs[7].addr.isReg());
    // The address register is initialised with the location address.
    bool addr_init = false;
    for (const auto &ri : test.regInits)
        addr_init |= ri.isLocAddress && ri.loc == "x";
    EXPECT_TRUE(addr_init);
    // The whole thing still round-trips through the litmus format.
    auto reparsed = litmus::parseTest(test.str());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->str(), test.str());
}

TEST(Builder, ThreadPlacementShapesTheScopeTree)
{
    Builder b("placed");
    Loc x = b.global("x", 0);
    Thread &t0 = b.thread(0, 0);
    Thread &t1 = b.thread(0, 1);
    Thread &t2 = b.thread(1, 0);
    Reg r0 = t0.reg("r0");
    t0.ld(r0, x);
    t1.st(x, 1);
    t2.st(x, 2);
    litmus::Test test = b.allow(r0 == 0).build();
    EXPECT_TRUE(test.scopeTree.sameCta(0, 1));
    EXPECT_FALSE(test.scopeTree.sameWarp(0, 1));
    EXPECT_FALSE(test.scopeTree.sameCta(0, 2));
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
    req.seed = harness::RunConfig{}.seed;
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
            job.maxMicroSteps = std::max(
                harness::RunConfig{}.maxMicroSteps, built->maxMicroSteps);
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
