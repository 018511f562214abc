/**
 * @file
 * Unit tests for the .cat DSL: parsing, operator semantics, filters,
 * parameterised relations, and the built-in models' structure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "axiom/enumerate.h"
#include "cat/models.h"
#include "litmus/library.h"

namespace gpulitmus::cat {
namespace {

axiom::Execution
firstExecution(const litmus::Test &t)
{
    auto execs = axiom::enumerateExecutions(t);
    EXPECT_FALSE(execs.empty());
    return execs.front();
}

// First in the file: the built-in models must not have been touched
// yet in this process when the threads race for them.
TEST(CatModels, ConcurrentFirstUseIsRaceFree)
{
    // The daemon's client threads can reach models::all() together
    // (a `list` next to a `validate`); every thread must get the same
    // parsed singletons, with no data race (the TSan build checks).
    constexpr int kThreads = 8;
    using Models = std::vector<std::pair<std::string, const Model *>>;
    std::vector<Models> seen(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            seen[static_cast<size_t>(t)] = models::all();
        });
    }
    go = true;
    for (auto &t : threads)
        t.join();
    ASSERT_EQ(seen[0].size(), 6u);
    for (const auto &got : seen)
        EXPECT_EQ(got, seen[0]);
    EXPECT_EQ(seen[0][0].second, &models::ptx());
}

TEST(CatParse, AcceptsPaperModels)
{
    CatError err;
    EXPECT_TRUE(Model::parse(models::ptxSource(), "ptx", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::rmoSource(), "rmo", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::scSource(), "sc", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::tsoSource(), "tso", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::baselineSource(), "op", &err))
        << err.message;
}

TEST(CatParse, RejectsBadSyntax)
{
    CatError err;
    EXPECT_FALSE(Model::parse("let = rf", "bad", &err));
    EXPECT_FALSE(Model::parse("acyclic (rf | co", "bad", &err));
    EXPECT_FALSE(Model::parse("frobnicate rf", "bad", &err));
    EXPECT_FALSE(Model::parse("let a(x = rf", "bad", &err));
}

TEST(CatParse, UnresolvableNamesAreParseErrorsWithTheirLine)
{
    // The model is compiled when it is parsed, so a name nothing
    // defines is refused there, with its line, not at the first
    // candidate evaluated.
    struct Case
    {
        const char *source;
        const char *message;
        int line;
    } cases[] = {
        {"let a = rf\nacyclic (a | nosuch) as x",
         "undefined relation 'nosuch'", 2},
        {"let a = rf\n\nacyclic f(a)", "undefined function 'f'", 3},
        {"let f(x) = x\nacyclic f(rf, co)",
         "'f' expects 1 arguments, got 2", 2},
        {"acyclic WW(rf, co)", "filter 'WW' takes one argument", 1},
        {"let f(x) = f(x)\nacyclic f(rf)", "recursive use of 'f'", 1},
        // A parameterised let is no relation by itself.
        {"let f(x) = x\nacyclic f", "undefined relation 'f'", 2},
    };
    for (const auto &c : cases) {
        CatError err;
        EXPECT_FALSE(Model::parse(c.source, "bad", &err)) << c.source;
        EXPECT_EQ(err.message, c.message) << c.source;
        EXPECT_EQ(err.line, c.line) << c.source;
    }
}

TEST(CatParse, CheckNamesInOrder)
{
    const Model &ptx = models::ptx();
    auto names = ptx.checkNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "sc-per-loc-llh");
    EXPECT_EQ(names[1], "no-thin-air");
    EXPECT_EQ(names[2], "cta-constraint");
    EXPECT_EQ(names[3], "gl-constraint");
    EXPECT_EQ(names[4], "sys-constraint");
}

TEST(CatEval, UnionInterDiffSemantics)
{
    Model m = Model::parseOrDie(R"(
let u = rf | co
let i = u & co
let d = u \ co
acyclic u as u-check
)",
                                "ops");
    auto ex = firstExecution(litmus::paperlib::mp());
    auto u = m.relation("u", ex);
    auto i = m.relation("i", ex);
    auto d = m.relation("d", ex);
    ASSERT_TRUE(u && i && d);
    EXPECT_EQ(*u, ex.rf | ex.co);
    EXPECT_EQ(*i, ex.co);
    EXPECT_EQ(*d, ex.rf.minus(ex.co));
}

TEST(CatEval, SeqClosureInverse)
{
    Model m = Model::parseOrDie(R"(
let s = rf ; po
let p = po+
let st = po*
let mb = po?
let inv = rf^-1
acyclic p as p-check
)",
                                "ops2");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("s", ex), ex.rf.seq(ex.po));
    EXPECT_EQ(*m.relation("p", ex), ex.po.plus());
    EXPECT_EQ(*m.relation("st", ex), ex.po.star());
    EXPECT_EQ(*m.relation("mb", ex), ex.po.maybe());
    EXPECT_EQ(*m.relation("inv", ex), ex.rf.inverse());
}

TEST(CatEval, FiltersSelectEventClasses)
{
    Model m = Model::parseOrDie(R"(
let ww = WW(po)
let wr = WR(po)
let rw = RW(po)
let rr = RR(po)
acyclic ww as ww-check
)",
                                "filters");
    auto ex = firstExecution(litmus::paperlib::mp());
    auto check = [&](const char *name, bool dom_w, bool rng_w) {
        auto r = m.relation(name, ex);
        ASSERT_TRUE(r.has_value());
        for (const auto &[i, j] : r->pairs()) {
            EXPECT_EQ(ex.events[i].isWrite(), dom_w);
            EXPECT_EQ(ex.events[j].isWrite(), rng_w);
        }
    };
    check("ww", true, true);
    check("wr", true, false);
    check("rw", false, true);
    check("rr", false, false);
}

TEST(CatEval, ParameterisedLet)
{
    Model m = Model::parseOrDie(R"(
let pair(a, b) = a | b
let both = pair(rf, co)
acyclic both as both-check
)",
                                "params");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("both", ex), ex.rf | ex.co);
}

TEST(CatEval, ParameterisedLetSeesTheBindingsAtItsCall)
{
    // herd's scoping: a body's free names mean what they mean where
    // the let is called, and a parameter shadows them.
    Model m = Model::parseOrDie(R"(
let f(x) = x | extra
let extra = co
let both = f(rf)
let extra = po
let later = f(rf)
let g(co) = co
let shadowed = g(rf)
acyclic both as both-check
)",
                                "scoping");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("both", ex), ex.rf | ex.co);
    EXPECT_EQ(*m.relation("later", ex), ex.rf | ex.po);
    EXPECT_EQ(*m.relation("shadowed", ex), ex.rf);
    // relation() answers the first let of a name, as it always has.
    EXPECT_EQ(*m.relation("extra", ex), ex.co);
    EXPECT_FALSE(m.relation("f", ex).has_value());
    EXPECT_FALSE(m.relation("nosuch", ex).has_value());
}

TEST(CatEval, BaseRelationsMatchTheExecution)
{
    Model m = Model::parseOrDie("acyclic po as po-check", "bases");
    for (const litmus::Test &t :
         {litmus::paperlib::mp(), litmus::paperlib::coRR(),
          litmus::paperlib::casSl(true), litmus::paperlib::lbDeps(true)}) {
        for (const auto &ex : axiom::enumerateExecutions(t)) {
            int n = ex.numEvents();
            axiom::Relation id = axiom::Relation::identity(n);
            axiom::Relation all = axiom::Relation::universal(n);
            std::pair<const char *, axiom::Relation> bases[] = {
                {"po", ex.po},
                {"po-loc", ex.poLoc()},
                {"rf", ex.rf},
                {"rfe", ex.external(ex.rf)},
                {"rfi", ex.internal(ex.rf)},
                {"co", ex.co},
                {"coe", ex.external(ex.co)},
                {"coi", ex.internal(ex.co)},
                {"fr", ex.fr()},
                {"fre", ex.external(ex.fr())},
                {"fri", ex.internal(ex.fr())},
                {"addr", ex.addr},
                {"data", ex.data},
                {"ctrl", ex.ctrl},
                {"membar.cta", ex.membarCta},
                {"membar.gl", ex.membarGl},
                {"membar.sys", ex.membarSys},
                {"cta", ex.scopeCta},
                {"gl", ex.scopeGl},
                {"sys", ex.scopeSys},
                {"rmw", ex.rmw()},
                {"loc", ex.sameLoc()},
                {"id", id},
                {"ext", ex.external(all)},
                {"int", ex.internal(all).minus(id)},
                {"0", axiom::Relation(n)},
            };
            for (const auto &[name, want] : bases) {
                auto got = m.relation(name, ex);
                ASSERT_TRUE(got.has_value()) << name;
                EXPECT_EQ(*got, want) << t.name << " " << name;
            }
        }
    }
}

TEST(CatEval, FirstFailedCheckAgreesWithEvaluate)
{
    for (const litmus::Test &t :
         {litmus::paperlib::mp(), litmus::paperlib::sb(),
          litmus::paperlib::lbMembarCtas(), litmus::paperlib::coRR(),
          litmus::paperlib::mpFig14()}) {
        for (const auto &ex : axiom::enumerateExecutions(t)) {
            for (const auto &[name, model] : models::all()) {
                ModelResult res = model->evaluate(ex);
                int want = -1;
                for (size_t k = 0; k < res.checks.size(); ++k) {
                    if (!res.checks[k].passed) {
                        want = static_cast<int>(k);
                        break;
                    }
                }
                EXPECT_EQ(model->firstFailedCheck(ex), want)
                    << t.name << " " << name;
                EXPECT_EQ(want < 0, res.allowed);
            }
        }
    }
}

TEST(CatEval, CommentsIgnored)
{
    Model m = Model::parseOrDie(R"(
(* a block comment
   over two lines *)
let x = rf // trailing comment
acyclic x as x-check
)",
                                "comments");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("x", ex), ex.rf);
}

TEST(CatEval, EmptyAndIrreflexiveChecks)
{
    Model m = Model::parseOrDie(R"(
empty (rf & co) as rf-is-not-co
irreflexive po as po-irrefl
)",
                                "checks");
    auto ex = firstExecution(litmus::paperlib::mp());
    ModelResult res = m.evaluate(ex);
    ASSERT_EQ(res.checks.size(), 2u);
    EXPECT_TRUE(res.checks[0].passed);
    EXPECT_TRUE(res.checks[1].passed);
    EXPECT_TRUE(res.allowed);
}

TEST(CatEval, FailedAcyclicReportsCycle)
{
    Model m = Model::parseOrDie("acyclic (po | po^-1) as bad",
                                "cycle");
    auto ex = firstExecution(litmus::paperlib::mp());
    ModelResult res = m.evaluate(ex);
    EXPECT_FALSE(res.allowed);
    EXPECT_EQ(res.firstFailure(), "bad");
    EXPECT_FALSE(res.checks[0].cycle.empty());
    // A check's "as" name names the relation it tested.
    EXPECT_EQ(*m.relation("bad", ex), ex.po | ex.po.inverse());
}

TEST(CatEval, ScPerLocLlhAllowsCoRRShape)
{
    // The llh variant must pass on an execution where two po-ordered
    // same-address reads see new-then-old values, while the full
    // version fails (Sec. 5.2.2).
    const Model &ptx = models::ptx();
    const Model &full = models::scPerLocFull();
    bool llh_allows_weak = false;
    bool full_allows_weak = false;
    for (const auto &ex :
         axiom::enumerateExecutions(litmus::paperlib::coRR())) {
        if (ex.finalState.reg(1, "r1") == 1 &&
            ex.finalState.reg(1, "r2") == 0) {
            llh_allows_weak |= ptx.evaluate(ex).allowed;
            full_allows_weak |= full.evaluate(ex).allowed;
        }
    }
    EXPECT_TRUE(llh_allows_weak);
    EXPECT_FALSE(full_allows_weak);
}

TEST(CatModels, AllBuiltinsEvaluate)
{
    auto ex = firstExecution(litmus::paperlib::sb());
    for (const auto &[name, model] : models::all()) {
        ModelResult res = model->evaluate(ex);
        EXPECT_FALSE(res.checks.empty()) << name;
    }
}

} // namespace
} // namespace gpulitmus::cat
