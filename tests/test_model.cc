/**
 * @file
 * Semantic tests of the models against the paper's claims:
 *
 * - SC forbids all the weak idioms; the PTX model allows exactly the
 *   behaviours the paper observes on hardware.
 * - Fence/scope interaction: membar.gl forbids inter-CTA mp, while
 *   membar.cta does not (Fig. 3's Titan row is sound!).
 * - The Sec. 6 counterexample: the operational baseline forbids
 *   inter-CTA lb+membar.ctas, the PTX model allows it.
 * - Fig. 14: cta-constraint forbids the weak execution of intra-CTA
 *   mp with membar.cta and membar.gl.
 * - The distilled programming-assumption tests (Figs. 7, 8, 9, 11)
 *   are allowed without fences and forbidden with them.
 */

#include <gtest/gtest.h>

#include "axiom/enumerate.h"
#include "cat/models.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/checker.h"

namespace gpulitmus::model {
namespace {

namespace paperlib = litmus::paperlib;
using ptx::Scope;

bool
allowedBy(const cat::Model &m, const litmus::Test &t)
{
    return Checker(m).check(t).conditionSatisfiable;
}

TEST(ScModel, ForbidsAllWeakIdioms)
{
    const cat::Model &sc = cat::models::sc();
    EXPECT_FALSE(allowedBy(sc, paperlib::mp()));
    EXPECT_FALSE(allowedBy(sc, paperlib::sb()));
    EXPECT_FALSE(allowedBy(sc, paperlib::lb()));
    EXPECT_FALSE(allowedBy(sc, paperlib::coRR()));
}

TEST(TsoModel, AllowsSbForbidsMp)
{
    const cat::Model &tso = cat::models::tso();
    EXPECT_TRUE(allowedBy(tso, paperlib::sb()));
    EXPECT_FALSE(allowedBy(tso, paperlib::mp()));
    EXPECT_FALSE(allowedBy(tso, paperlib::lb()));
}

TEST(PtxModel, AllowsWeakIdiomsWithoutFences)
{
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_TRUE(allowedBy(ptx, paperlib::mp()));
    EXPECT_TRUE(allowedBy(ptx, paperlib::sb()));
    EXPECT_TRUE(allowedBy(ptx, paperlib::lb()));
    EXPECT_TRUE(allowedBy(ptx, paperlib::coRR()));
}

TEST(PtxModel, GlFenceForbidsInterCtaMp)
{
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_FALSE(allowedBy(ptx, paperlib::mp(Scope::Gl)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::mp(Scope::Sys)));
}

TEST(PtxModel, CtaFenceDoesNotOrderAcrossCtas)
{
    // The heart of the scoped model: membar.cta gives no inter-CTA
    // ordering, so mp+membar.ctas stays allowed inter-CTA but is
    // forbidden intra-CTA.
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_TRUE(allowedBy(ptx, paperlib::mp(Scope::Cta, true)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::mp(Scope::Cta, false)));
}

TEST(PtxModel, FencesForbidSbAndLbAtGlScope)
{
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_FALSE(allowedBy(ptx, paperlib::sb(Scope::Gl)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::lb(Scope::Gl)));
}

TEST(PtxModel, CoRRStaysAllowedUnderFences)
{
    // coRR is a same-location RR pair: the llh relaxation means even
    // strong fences... actually a fence *between* the reads does
    // order them (fence edges are in rmo). The unfenced test stays
    // allowed; Fig. 4's fence column behaviour is a cache effect the
    // model sidesteps by assuming .cg accesses (Sec. 5.5).
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_TRUE(allowedBy(ptx, paperlib::coRR()));
}

TEST(PtxModel, Sec6Counterexample)
{
    // lb+membar.ctas inter-CTA: allowed by the paper's model
    // (observed on Titan!), forbidden by the operational baseline.
    litmus::Test t = paperlib::lbMembarCtas();
    EXPECT_TRUE(allowedBy(cat::models::ptx(), t));
    EXPECT_FALSE(allowedBy(cat::models::baseline(), t));
}

TEST(PtxModel, Fig14WeakExecutionKilledByCtaConstraint)
{
    // Intra-CTA mp, membar.cta on the writer and membar.gl on the
    // reader: the weak execution's cycle membar.cta; rfe; membar.gl; fr
    // is at CTA scope, so cta-constraint forbids it; the other three
    // candidates are allowed.
    litmus::Test t = paperlib::mpFig14();
    const cat::Model &ptx = cat::models::ptx();
    int weak = 0;
    for (const auto &ex : axiom::enumerateExecutions(t)) {
        cat::ModelResult res = ptx.evaluate(ex);
        if (!t.condition.eval(ex.finalState)) {
            EXPECT_TRUE(res.allowed) << ex.str();
            continue;
        }
        ++weak;
        EXPECT_FALSE(res.allowed) << ex.str();
        EXPECT_EQ(res.firstFailure(), "cta-constraint");
    }
    EXPECT_EQ(weak, 1);
    Verdict v = Checker(ptx).check(t);
    EXPECT_FALSE(v.conditionSatisfiable);
    EXPECT_EQ(v.forbiddingCheck, "cta-constraint");
}

TEST(PtxModel, NoThinAirHolds)
{
    // lb with address dependencies on both sides (Fig. 13b's
    // and-with-high-bit) must be forbidden.
    EXPECT_FALSE(allowedBy(cat::models::ptx(), paperlib::lbDeps(false)));
}

TEST(PtxModel, DlbTestsWeakWithoutFencesForbiddenWith)
{
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_TRUE(allowedBy(ptx, paperlib::dlbMp(false)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::dlbMp(true)));
    EXPECT_TRUE(allowedBy(ptx, paperlib::dlbLb(false)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::dlbLb(true)));
}

TEST(PtxModel, SpinLockTests)
{
    const cat::Model &ptx = cat::models::ptx();
    EXPECT_TRUE(allowedBy(ptx, paperlib::casSl(false)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::casSl(true)));
    EXPECT_TRUE(allowedBy(ptx, paperlib::slFuture(false)));
    EXPECT_FALSE(allowedBy(ptx, paperlib::slFuture(true)));
}

TEST(PtxModel, MpMembarGlsFixesTheCudaManualExample)
{
    EXPECT_FALSE(
        allowedBy(cat::models::ptx(), paperlib::mpMembarGls()));
}

TEST(Checker, VerdictFieldsPopulated)
{
    Checker checker(cat::models::ptx());
    Verdict v = checker.check(paperlib::mp());
    EXPECT_GT(v.numCandidates, 0u);
    EXPECT_GT(v.numAllowed, 0u);
    EXPECT_LE(v.numAllowed, v.numCandidates);
    EXPECT_TRUE(v.conditionSatisfiable);
    EXPECT_EQ(v.verdict, "Ok");
    ASSERT_TRUE(v.witness.has_value());
    EXPECT_FALSE(v.allowedKeys.empty());
}

TEST(Checker, ForbiddenWitnessNamesTheCheck)
{
    Checker checker(cat::models::ptx());
    Verdict v = checker.check(paperlib::mp(Scope::Gl));
    EXPECT_FALSE(v.conditionSatisfiable);
    ASSERT_TRUE(v.forbiddenWitness.has_value());
    // The cycle lives at gl scope.
    EXPECT_EQ(v.forbiddingCheck, "gl-constraint");
}

TEST(Checker, ScAllowsOnlyInterleavings)
{
    Checker checker(cat::models::sc());
    Verdict v = checker.check(paperlib::sb());
    // sb under SC: 3 outcomes (0,1), (1,0), (1,1); the (0,0) weak
    // outcome is forbidden.
    EXPECT_EQ(v.allowedKeys.size(), 3u);
    EXPECT_EQ(v.forbiddenKeys.size(), 1u);
}

TEST(Checker, SoundnessReportFlagsForbiddenObservation)
{
    litmus::Test t = paperlib::mp();
    Checker checker(cat::models::sc());
    Verdict v = checker.check(t);

    litmus::Histogram h(t);
    litmus::FinalState weak;
    weak.regs[{1, "r1"}] = 1;
    weak.regs[{1, "r2"}] = 0;
    h.record(weak);

    SoundnessReport report = checkSoundness(v, h);
    EXPECT_FALSE(report.sound);
    ASSERT_EQ(report.violations.size(), 1u);

    // The PTX model allows it: sound.
    Checker ptx_checker(cat::models::ptx());
    SoundnessReport ok = checkSoundness(ptx_checker.check(t), h);
    EXPECT_TRUE(ok.sound);
}

/** Model-inclusion sweep: SC-allowed ⊆ TSO-allowed ⊆ RMO-allowed and
 * RMO ⊆ PTX (scoping only weakens), on every library test. */
class ModelInclusion
    : public ::testing::TestWithParam<litmus::paperlib::NamedTest>
{
};

TEST_P(ModelInclusion, WeakerModelsAllowMore)
{
    const litmus::Test &t = GetParam().test;
    auto keys = [&](const cat::Model &m) {
        return Checker(m).check(t).allowedKeys;
    };
    auto sc_keys = keys(cat::models::sc());
    auto tso_keys = keys(cat::models::tso());
    auto rmo_keys = keys(cat::models::rmo());
    auto ptx_keys = keys(cat::models::ptx());
    EXPECT_TRUE(std::includes(tso_keys.begin(), tso_keys.end(),
                              sc_keys.begin(), sc_keys.end()));
    EXPECT_TRUE(std::includes(rmo_keys.begin(), rmo_keys.end(),
                              tso_keys.begin(), tso_keys.end()));
    EXPECT_TRUE(std::includes(ptx_keys.begin(), ptx_keys.end(),
                              rmo_keys.begin(), rmo_keys.end()));
}

TEST(EnumerationMemo, OneEnumerationServesEveryModel)
{
    // The hot path of a validation sweep: checking one test against N
    // models must enumerate its candidate executions once.
    clearEnumerationCache();
    EXPECT_EQ(enumerationCacheSize(), 0u);

    litmus::Test test = paperlib::mp();
    Verdict first = Checker(cat::models::ptx()).check(test);
    EXPECT_EQ(enumerationCacheSize(), 1u);
    Verdict second = Checker(cat::models::sc()).check(test);
    Verdict third = Checker(cat::models::baseline()).check(test);
    EXPECT_EQ(enumerationCacheSize(), 1u);

    // Distinct verdicts, same candidate set.
    EXPECT_EQ(first.numCandidates, second.numCandidates);
    EXPECT_EQ(second.numCandidates, third.numCandidates);
    EXPECT_TRUE(first.conditionSatisfiable);  // ptx allows weak mp
    EXPECT_FALSE(second.conditionSatisfiable); // sc forbids it

    // A different test (or different enumerator options) is a new
    // entry, not a collision.
    Checker(cat::models::ptx()).check(paperlib::sb());
    EXPECT_EQ(enumerationCacheSize(), 2u);
    axiom::EnumeratorOptions opts;
    opts.maxValuesPerLoc = 8;
    Checker(cat::models::ptx(), opts).check(test);
    EXPECT_EQ(enumerationCacheSize(), 3u);

    clearEnumerationCache();
    EXPECT_EQ(enumerationCacheSize(), 0u);
}

TEST(EnumerationMemo, MemoisedVerdictsMatchFreshOnes)
{
    clearEnumerationCache();
    litmus::Test test = paperlib::lbMembarCtas();
    Verdict cold = Checker(cat::models::ptx()).check(test);
    Verdict warm = Checker(cat::models::ptx()).check(test);
    EXPECT_EQ(cold.numCandidates, warm.numCandidates);
    EXPECT_EQ(cold.numAllowed, warm.numAllowed);
    EXPECT_EQ(cold.allowedKeys, warm.allowedKeys);
    EXPECT_EQ(cold.verdict, warm.verdict);
}

TEST(ModelScope, CaVolatileAndLoopedTestsAreOutsideTheModelScope)
{
    EXPECT_TRUE(inModelScope(paperlib::mp()));
    EXPECT_TRUE(inModelScope(paperlib::lbMembarCtas()));
    EXPECT_FALSE(inModelScope(paperlib::mpVolatile()));
    EXPECT_FALSE(inModelScope(paperlib::mpL1(std::nullopt)));
    EXPECT_FALSE(inModelScope(paperlib::coRRL2L1(std::nullopt)));

    // Spin loops (branches): the axiomatic side enumerates finite
    // executions only, so looped scenarios are out of scope too.
    auto spin = litmus::parseTest(R"(GPU_PTX spin
{global x=0;}
 T0              | T1                  ;
 st.cg.s32 [x],1 | LOOP:               ;
                 | ld.cg.s32 r1,[x]    ;
                 | setp.eq.s32 p0,r1,0 ;
                 | @p0 bra LOOP        ;
ScopeTree(grid(cta((warp T0)) cta((warp T1))))
exists ((1:r1=1))
)");
    ASSERT_TRUE(spin.has_value());
    EXPECT_FALSE(inModelScope(*spin));
}

INSTANTIATE_TEST_SUITE_P(
    PaperTests, ModelInclusion,
    ::testing::ValuesIn(litmus::paperlib::allTests()),
    [](const ::testing::TestParamInfo<litmus::paperlib::NamedTest>
           &info) {
        std::string name = info.param.id;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace gpulitmus::model
