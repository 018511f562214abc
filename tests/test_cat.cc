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
