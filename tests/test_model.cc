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

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "axiom/enumerate.h"
#include "cat/models.h"
#include "gen/generator.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/checker.h"
#include "obs/metrics.h"
#include "scenario/registry.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

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

/** Two verdicts agree on everything but the test's name. */
void
expectSameVerdict(const Verdict &a, const Verdict &b)
{
    EXPECT_EQ(a.modelName, b.modelName);
    EXPECT_EQ(a.numCandidates, b.numCandidates);
    EXPECT_EQ(a.numAllowed, b.numAllowed);
    EXPECT_EQ(a.allowedKeys, b.allowedKeys);
    EXPECT_EQ(a.forbiddenKeys, b.forbiddenKeys);
    EXPECT_EQ(a.conditionSatisfiable, b.conditionSatisfiable);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.forbiddingCheck, b.forbiddingCheck);
    ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
    if (a.witness) {
        EXPECT_EQ(a.witness->str(), b.witness->str());
    }
    ASSERT_EQ(a.forbiddenWitness.has_value(),
              b.forbiddenWitness.has_value());
    if (a.forbiddenWitness) {
        EXPECT_EQ(a.forbiddenWitness->str(), b.forbiddenWitness->str());
    }
}

/** Enumerations the memo answered since `hits0` / checks since
 * `checks0`: the memo's own tallies. */
struct MemoTally
{
    obs::Counter &checks = obs::counter("model_checks_total");
    obs::Counter &hits = obs::counter("model_enumeration_memo_hits_total");
    uint64_t checks0 = checks.value();
    uint64_t hits0 = hits.value();

    uint64_t checked() const { return checks.value() - checks0; }
    uint64_t computed() const { return checked() - (hits.value() - hits0); }
};

TEST(EnumerationMemo, RenamedCopySharesTheEnumeration)
{
    // AMD cells check a renamed copy (mp@HD6570) of the same program:
    // the memo is keyed on the program, not on the test's name.
    obs::setEnabled(true);
    clearEnumerationCache();
    MemoTally tally;
    litmus::Test mp = paperlib::mp(Scope::Gl);
    litmus::Test copy = mp;
    copy.name = "mp@HD6570";
    Verdict a = Checker(cat::models::ptx()).check(mp);
    Verdict b = Checker(cat::models::ptx()).check(copy);
    EXPECT_EQ(enumerationCacheSize(), 1u);
    EXPECT_EQ(tally.checked(), 2u);
    EXPECT_EQ(tally.computed(), 1u);
    EXPECT_EQ(a.testName, mp.name);
    EXPECT_EQ(b.testName, "mp@HD6570");
    expectSameVerdict(a, b);

    // A program that differs is a new entry.
    litmus::Test other = copy;
    other.condition = paperlib::mp().condition;
    other.quantifier = litmus::Quantifier::Forall;
    Checker(cat::models::ptx()).check(other);
    EXPECT_EQ(enumerationCacheSize(), 2u);
    EXPECT_EQ(tally.computed(), 2u);
}

TEST(EnumerationMemo, ConcurrentAsksForOneProgramEnumerateOnce)
{
    // Engine workers reach one program's cells together; the second
    // asker waits for the first one's enumeration.
    obs::setEnabled(true);
    clearEnumerationCache();
    MemoTally tally;
    constexpr int kThreads = 8;
    litmus::Test test = paperlib::lbMembarCtas();
    std::vector<Verdict> seen(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            litmus::Test copy = test;
            copy.name = test.name + "@" + std::to_string(t);
            while (!go.load())
                std::this_thread::yield();
            seen[static_cast<size_t>(t)] =
                Checker(cat::models::ptx()).check(copy);
        });
    }
    go = true;
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(tally.checked(), static_cast<uint64_t>(kThreads));
    EXPECT_EQ(tally.computed(), 1u);
    EXPECT_EQ(enumerationCacheSize(), 1u);
    for (const auto &v : seen)
        expectSameVerdict(v, seen[0]);
}

TEST(EnumerationMemo, StaysWithinItsCapacity)
{
    clearEnumerationCache();
    gen::GeneratorOptions gopts;
    gopts.maxEdges = 4;
    gopts.maxTests = 250;
    std::set<std::string> programs;
    for (const auto &g : gen::generate(gen::defaultPool(), gopts)) {
        if (!inModelScope(g.test) ||
            !programs.insert(g.test.programText()).second)
            continue;
        Checker(cat::models::sc()).check(g.test);
        EXPECT_LE(enumerationCacheSize(), kEnumerationMemoCapacity);
        if (programs.size() > kEnumerationMemoCapacity + 8)
            break;
    }
    EXPECT_GT(programs.size(), kEnumerationMemoCapacity);
    clearEnumerationCache();
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

// ---- model pins -----------------------------------------------------

/** Every in-scope program the pins cover, labelled: the on-disk
 * corpus, the paper library, the registry's scenario variants and
 * 250 generated programs. */
std::vector<std::pair<std::string, litmus::Test>>
pinnedPrograms()
{
    std::vector<std::pair<std::string, litmus::Test>> out;
    auto add = [&](const std::string &label, const litmus::Test &t) {
        if (inModelScope(t))
            out.emplace_back(label, t);
    };
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests")) {
        if (e.path().extension() == ".litmus")
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        auto t = litmus::parseTest(text.str());
        EXPECT_TRUE(t.has_value()) << path;
        if (t)
            add("corpus:" + std::filesystem::path(path).filename().string(),
                *t);
    }
    for (const auto &named : paperlib::allTests())
        add("library:" + named.id, named.test);
    for (const auto &s : scenario::all()) {
        for (int fenced = 0; fenced <= 1; ++fenced) {
            std::string spec = "scenario:" + s.name +
                               ",fenced=" + std::to_string(fenced);
            auto built = scenario::buildSpec(spec);
            EXPECT_TRUE(built.has_value()) << spec;
            if (built)
                add(spec, built->test);
        }
    }
    gen::GeneratorOptions gopts;
    gopts.maxEdges = 4;
    gopts.maxTests = 250;
    auto generated = gen::generate(gen::defaultPool(), gopts);
    EXPECT_EQ(generated.size(), 250u);
    for (const auto &g : generated)
        add("gen:" + g.cycleName, g.test);
    return out;
}

/** FNV-1a: a digest whose value is fixed by this file alone. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(ModelPins, EveryBuiltinModelReproducesItsPinnedVerdicts)
{
    // Each built-in model's verdicts over every pinned program, down
    // to the failing check (and its cycle) of every forbidden
    // candidate, as one digest per model. The digests were taken with
    // the tree-walking interpreter the compiled evaluator replaced;
    // any change to a model's semantics moves them.
    const std::map<std::string, uint64_t> pinned = {
        {"ptx", 0xbb5c4ed80ece317cULL},
        {"rmo", 0x7508c32c535e3dc4ULL},
        {"sc", 0xe866996b06a18aabULL},
        {"tso", 0x6cad1110509d3ea1ULL},
        {"sc-per-loc-full", 0x8a9bf52604e1a4baULL},
        {"baseline", 0x11393b5621db1350ULL},
    };
    auto programs = pinnedPrograms();
    EXPECT_EQ(programs.size(), 291u);
    for (const auto &[id, model] : cat::models::all()) {
        std::string record;
        for (const auto &[label, test] : programs) {
            Verdict v = Checker(*model).check(test);
            record += label + "|" + v.modelName + "|" +
                      std::to_string(v.numCandidates) + "|" +
                      std::to_string(v.numAllowed) + "|" + v.verdict +
                      "|" + v.forbiddingCheck + "|allowed";
            for (const auto &k : v.allowedKeys)
                record += " " + k;
            record += "|forbidden";
            for (const auto &k : v.forbiddenKeys)
                record += " " + k;
            record += "|";
            for (const auto &ex : axiom::enumerateExecutions(test)) {
                cat::ModelResult res = model->evaluate(ex);
                if (res.allowed) {
                    record += "+";
                    continue;
                }
                record += " -" + res.firstFailure();
                for (const auto &check : res.checks) {
                    for (int e : check.cycle)
                        record += "," + std::to_string(e);
                    if (check.passed || check.kind != "acyclic")
                        continue;
                    // The reported cycle is a cycle of the relation
                    // the check tested.
                    auto rel = model->relation(check.name, ex);
                    ASSERT_TRUE(rel.has_value()) << id << " " << label;
                    const auto &cycle = check.cycle;
                    ASSERT_FALSE(cycle.empty()) << id << " " << label;
                    for (size_t k = 0; k < cycle.size(); ++k)
                        EXPECT_TRUE(rel->get(
                            cycle[k], cycle[(k + 1) % cycle.size()]))
                            << id << " " << label << " " << check.name;
                }
            }
            record += "\n";
        }
        uint64_t got = fnv1a(record);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
        EXPECT_EQ(got, pinned.at(id))
            << id << " over " << programs.size()
            << " programs digests to " << hex;
    }
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
