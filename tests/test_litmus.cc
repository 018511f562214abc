/**
 * @file
 * Unit tests for the litmus layer: conditions, scope trees, the test
 * builder, the Fig. 12 format parser, histograms, and the built-in
 * paper test library.
 */

#include <gtest/gtest.h>

#include "litmus/library.h"
#include "litmus/outcome.h"
#include "litmus/parser.h"
#include "scenario/registry.h"

namespace gpulitmus::litmus {
namespace {

TEST(Condition, ParseAtomAndEval)
{
    auto c = parseCondition("0:r1=1");
    ASSERT_TRUE(c.has_value());
    FinalState st;
    st.regs[{0, "r1"}] = 1;
    EXPECT_TRUE(c->eval(st));
    st.regs[{0, "r1"}] = 0;
    EXPECT_FALSE(c->eval(st));
}

TEST(Condition, ParseConjunction)
{
    auto c = parseCondition("0:r1=1 /\\ 1:r2=0");
    ASSERT_TRUE(c.has_value());
    FinalState st;
    st.regs[{0, "r1"}] = 1;
    st.regs[{1, "r2"}] = 0;
    EXPECT_TRUE(c->eval(st));
    st.regs[{1, "r2"}] = 1;
    EXPECT_FALSE(c->eval(st));
}

TEST(Condition, ParseDisjunctionAndParens)
{
    auto c = parseCondition("(0:r1=1 \\/ x=2) /\\ ~(1:r0=5)");
    ASSERT_TRUE(c.has_value());
    FinalState st;
    st.mem["x"] = 2;
    st.regs[{1, "r0"}] = 4;
    EXPECT_TRUE(c->eval(st));
    st.regs[{1, "r0"}] = 5;
    EXPECT_FALSE(c->eval(st));
}

TEST(Condition, LocationAtoms)
{
    auto c = parseCondition("x=3");
    ASSERT_TRUE(c.has_value());
    FinalState st;
    st.mem["x"] = 3;
    EXPECT_TRUE(c->eval(st));
}

TEST(Condition, MissingRegsDefaultToZero)
{
    auto c = parseCondition("0:r9=0");
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->eval(FinalState{}));
}

TEST(Condition, CollectRegsAndLocs)
{
    auto c = parseCondition("0:r1=1 /\\ 1:r2=0 /\\ x=2 /\\ 0:r1=3");
    ASSERT_TRUE(c.has_value());
    std::vector<RegKey> regs;
    c->collectRegs(regs);
    EXPECT_EQ(regs.size(), 2u); // deduplicated
    std::vector<std::string> locs;
    c->collectLocs(locs);
    ASSERT_EQ(locs.size(), 1u);
    EXPECT_EQ(locs[0], "x");
}

TEST(Condition, QuantifierParsing)
{
    auto q1 = parseQuantifiedCondition("exists (0:r1=1)");
    ASSERT_TRUE(q1.has_value());
    EXPECT_EQ(q1->first, Quantifier::Exists);

    auto q2 = parseQuantifiedCondition("~exists (0:r1=1)");
    ASSERT_TRUE(q2.has_value());
    EXPECT_EQ(q2->first, Quantifier::NotExists);

    auto q3 = parseQuantifiedCondition("forall (0:r1=1)");
    ASSERT_TRUE(q3.has_value());
    EXPECT_EQ(q3->first, Quantifier::Forall);

    auto q4 = parseQuantifiedCondition("final: 0:r1=1");
    ASSERT_TRUE(q4.has_value());
    EXPECT_EQ(q4->first, Quantifier::Exists);

    EXPECT_FALSE(parseQuantifiedCondition("sometimes (0:r1=1)"));
}

TEST(Condition, RejectsMalformed)
{
    EXPECT_FALSE(parseCondition("0:r1="));
    EXPECT_FALSE(parseCondition("=1"));
    EXPECT_FALSE(parseCondition("0:r1=1 /\\"));
    EXPECT_FALSE(parseCondition("(0:r1=1"));
}

TEST(ScopeTree, Factories)
{
    ScopeTree w = ScopeTree::intraWarp(2);
    EXPECT_TRUE(w.sameWarp(0, 1));

    ScopeTree c = ScopeTree::intraCta(2);
    EXPECT_TRUE(c.sameCta(0, 1));
    EXPECT_FALSE(c.sameWarp(0, 1));

    ScopeTree g = ScopeTree::interCta(3);
    EXPECT_FALSE(g.sameCta(0, 1));
    EXPECT_FALSE(g.sameCta(1, 2));
    EXPECT_EQ(g.numCtas(), 3);
}

TEST(ScopeTree, ParsePaperFormat)
{
    auto t = ScopeTree::parse("ScopeTree(grid(cta(warp T0) (warp T1)))");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->numThreads(), 2);
    EXPECT_TRUE(t->sameCta(0, 1));
    EXPECT_FALSE(t->sameWarp(0, 1));
}

TEST(ScopeTree, ParseInterCta)
{
    auto t = ScopeTree::parse("grid(cta(warp T0)) (cta(warp T1))");
    ASSERT_TRUE(t.has_value());
    EXPECT_FALSE(t->sameCta(0, 1));
}

TEST(ScopeTree, ParseSameWarp)
{
    auto t = ScopeTree::parse("grid(cta(warp T0 T1))");
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->sameWarp(0, 1));
}

TEST(ScopeTree, RoundTrip)
{
    ScopeTree orig = ScopeTree::intraCta(2);
    auto parsed = ScopeTree::parse(orig.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, orig);
}

TEST(ScopeTree, RejectsBadInput)
{
    EXPECT_FALSE(ScopeTree::parse("cta(warp T0)"));
    EXPECT_FALSE(ScopeTree::parse("grid(warp T0)")); // warp outside cta
    EXPECT_FALSE(ScopeTree::parse("grid(cta(warp T0) (warp T2))"));
    EXPECT_FALSE(ScopeTree::parse(""));
}

TEST(ScopeTree, SingleThreadDegenerateTree)
{
    // The one-thread tree: every relation is reflexive-only and there
    // is exactly one CTA — the shape the analyzer sees for
    // single-thread programs (no cross-thread pair can exist).
    for (ScopeTree t : {ScopeTree::intraWarp(1), ScopeTree::intraCta(1),
                        ScopeTree::interCta(1)}) {
        EXPECT_EQ(t.numThreads(), 1);
        EXPECT_EQ(t.numCtas(), 1);
        EXPECT_TRUE(t.sameCta(0, 0));
        EXPECT_TRUE(t.sameWarp(0, 0));
        auto parsed = ScopeTree::parse(t.str());
        ASSERT_TRUE(parsed.has_value()) << t.str();
        EXPECT_EQ(*parsed, t);
    }
}

TEST(ScopeTree, AllThreadsInOneWarp)
{
    // Four threads packed into one warp of one CTA: sameWarp (and so
    // sameCta) holds for every pair, and a membar.cta always has a
    // same-CTA peer to act on.
    ScopeTree t = ScopeTree::intraWarp(4);
    EXPECT_EQ(t.numThreads(), 4);
    EXPECT_EQ(t.numCtas(), 1);
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            EXPECT_TRUE(t.sameWarp(i, j)) << i << "," << j;
            EXPECT_TRUE(t.sameCta(i, j)) << i << "," << j;
            EXPECT_EQ(t.placement(i).warp, t.placement(j).warp);
        }
    }
    auto parsed = ScopeTree::parse(t.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
}

TEST(ScopeTree, ScenarioBuildersPlaceThreadsInterCta)
{
    // The registry scenarios model inter-GPU-block interaction: every
    // scenario variant must place at least two testing threads in
    // different CTAs, and numCtas() must agree with the maximum CTA
    // index in the placements (the machine sizes its per-CTA shared
    // memories and L1s from it).
    for (const auto &s : scenario::all()) {
        std::string error;
        auto built =
            scenario::buildSpec("scenario:" + s.name, &error);
        ASSERT_TRUE(built.has_value()) << s.name << ": " << error;
        const ScopeTree &tree = built->test.scopeTree;
        ASSERT_GE(tree.numThreads(), 2) << s.name;
        bool crossCta = false;
        int maxCta = 0;
        for (int i = 0; i < tree.numThreads(); ++i) {
            maxCta = std::max(maxCta, tree.placement(i).cta);
            for (int j = i + 1; j < tree.numThreads(); ++j) {
                if (!tree.sameCta(i, j))
                    crossCta = true;
                // sameWarp refines sameCta in a well-formed tree.
                if (tree.sameWarp(i, j)) {
                    EXPECT_TRUE(tree.sameCta(i, j))
                        << s.name << " T" << i << "/T" << j;
                }
            }
        }
        EXPECT_TRUE(crossCta) << s.name;
        EXPECT_EQ(tree.numCtas(), maxCta + 1) << s.name;
        // The tree round-trips through the paper's concrete syntax.
        auto parsed = ScopeTree::parse(tree.str());
        ASSERT_TRUE(parsed.has_value()) << s.name;
        EXPECT_EQ(*parsed, tree) << s.name;
    }
}

TEST(TestBuilder, BuildsMp)
{
    litmus::Test t = TestBuilder("mp")
                 .global("x", 0)
                 .global("y", 0)
                 .thread("st.cg [x],1; st.cg [y],1")
                 .thread("ld.cg r1,[y]; ld.cg r2,[x]")
                 .interCta()
                 .exists("1:r1=1 /\\ 1:r2=0")
                 .build();
    EXPECT_EQ(t.program.numThreads(), 2);
    EXPECT_EQ(t.locations.size(), 2u);
    EXPECT_FALSE(t.scopeTree.sameCta(0, 1));
}

TEST(TestBuilder, AddressesAreStableAndDisjoint)
{
    litmus::Test t = TestBuilder("addr")
                 .global("x")
                 .global("y")
                 .shared("s")
                 .thread("st.cg [x],1")
                 .exists("x=1")
                 .build();
    EXPECT_NE(t.addressOf("x"), t.addressOf("y"));
    EXPECT_NE(t.addressOf("x"), t.addressOf("s"));
    EXPECT_EQ(t.locationAt(t.addressOf("y")).value(), "y");
    EXPECT_EQ(t.spaceOf(t.addressOf("s")).value(), MemSpace::Shared);
    EXPECT_FALSE(t.locationAt(12345).has_value());
}

TEST(LitmusParser, ParsesFig12)
{
    const char *src = R"(
GPU_PTX SB
{0:.reg .s32 r0; 0:.reg .s32 r2;
 0:.reg .b64 r1 = x; 0:.reg .b64 r3 = y;
 1:.reg .s32 r0; 1:.reg .s32 r2;
 1:.reg .b64 r1 = y; 1:.reg .b64 r3 = x;}
 T0                 | T1                 ;
 mov.s32 r0,1       | mov.s32 r0,1       ;
 st.cg.s32 [r1],r0  | st.cg.s32 [r1],r0  ;
 ld.cg.s32 r2,[r3]  | ld.cg.s32 r2,[r3]  ;
ScopeTree(grid(cta(warp T0) (warp T1)))
x: shared, y: global
exists (0:r2=0 /\ 1:r2=0)
)";
    ParseError err;
    auto t = parseTest(src, &err);
    ASSERT_TRUE(t.has_value()) << err.message;
    EXPECT_EQ(t->name, "SB");
    EXPECT_EQ(t->program.numThreads(), 2);
    EXPECT_EQ(t->regInits.size(), 4u); // the four location bindings
    ASSERT_TRUE(t->findLocation("x"));
    EXPECT_EQ(t->findLocation("x")->space, MemSpace::Shared);
    EXPECT_EQ(t->findLocation("y")->space, MemSpace::Global);
    EXPECT_TRUE(t->scopeTree.sameCta(0, 1));
    EXPECT_EQ(t->quantifier, Quantifier::Exists);
}

TEST(LitmusParser, ParsesSymbolicAddressesWithoutInitBlock)
{
    const char *src = R"(
GPU_PTX mp-lite
T0              | T1              ;
st.cg [x],1     | ld.cg r1,[y]    ;
st.cg [y],1     | ld.cg r2,[x]    ;
exists (1:r1=1 /\ 1:r2=0)
)";
    ParseError err;
    auto t = parseTest(src, &err);
    ASSERT_TRUE(t.has_value()) << err.message;
    EXPECT_EQ(t->locations.size(), 2u);
    // Default placement is inter-CTA.
    EXPECT_FALSE(t->scopeTree.sameCta(0, 1));
}

TEST(LitmusParser, LocationInitsInBraces)
{
    const char *src = R"(
GPU_PTX init-test
{x=5; global y=2; shared z=1;}
T0 ;
ld.cg r0,[x] ;
exists (0:r0=5)
)";
    ParseError err;
    auto t = parseTest(src, &err);
    ASSERT_TRUE(t.has_value()) << err.message;
    EXPECT_EQ(t->findLocation("x")->init, 5);
    EXPECT_EQ(t->findLocation("y")->init, 2);
    EXPECT_EQ(t->findLocation("z")->space, MemSpace::Shared);
}

TEST(LitmusParser, MissingConditionIsError)
{
    ParseError err;
    EXPECT_FALSE(parseTest("GPU_PTX bad\nT0 ;\nst.cg [x],1 ;\n", &err));
}

/** A one-thread test with `nregs` distinct registers (one mov each)
 * and `nlocs` initialised locations. */
std::string
limitSource(int nregs, int nlocs)
{
    std::string src = "GPU_PTX limits\n{";
    for (int i = 0; i < nlocs; ++i)
        src += "x" + std::to_string(i) + "=0; ";
    src += "}\nT0 ;\n";
    for (int i = 0; i < nregs; ++i)
        src += "mov.s32 r" + std::to_string(i) + ",1 ;\n";
    return src + "exists (0:r0=1)\n";
}

TEST(LitmusParser, RejectsMoreRegistersThanTheMachineTracks)
{
    constexpr int kMax = litmus::Test::maxRegisters;
    ParseError err;
    ASSERT_TRUE(parseTest(limitSource(kMax, 1), &err)) << err.message;
    EXPECT_FALSE(parseTest(limitSource(kMax + 1, 1), &err));
    EXPECT_NE(err.message.find("T0 uses 65 registers"),
              std::string::npos)
        << err.message;
}

TEST(LitmusParser, RejectsMoreLocationsThanTheMachineTracks)
{
    constexpr int kMax = litmus::Test::maxLocations;
    ParseError err;
    ASSERT_TRUE(parseTest(limitSource(1, kMax), &err)) << err.message;
    EXPECT_FALSE(parseTest(limitSource(1, kMax + 1), &err));
    EXPECT_NE(err.message.find("65 locations"), std::string::npos)
        << err.message;
}

// Internal inconsistencies are parse errors, not process exits: the
// daemon parses untrusted inline tests, and a fatal in
// Test::validate would take it down with every client.

TEST(LitmusParser, RegisterInitForAMissingThreadIsAParseError)
{
    ParseError err;
    EXPECT_FALSE(parseTest("GPU_PTX bad\n{5:r0=1;}\nT0 ;\n"
                           "ld.cg r1,[x] ;\nexists (0:r1=0)\n",
                           &err));
    EXPECT_NE(err.message.find("register init for bad thread 5"),
              std::string::npos)
        << err.message;
}

TEST(LitmusParser, UndefinedBranchLabelIsAParseError)
{
    ParseError err;
    EXPECT_FALSE(parseTest("GPU_PTX bad\nT0 ;\nld.cg r1,[x] ;\n"
                           "bra NOWHERE ;\nexists (0:r1=0)\n",
                           &err));
    EXPECT_NE(err.message.find("undefined label 'NOWHERE'"),
              std::string::npos)
        << err.message;
}

TEST(LitmusParser, LocationInconsistenciesAreValidationErrors)
{
    // The parser creates every location a test names, so these three
    // cannot come out of parseTest; check validationError() directly
    // on a parsed test edited into each inconsistent shape.
    ParseError err;
    auto base = parseTest("GPU_PTX ok\n{x=0;}\nT0 ;\nld.cg r1,[x] ;\n"
                          "exists (0:r1=0)\n",
                          &err);
    ASSERT_TRUE(base) << err.message;
    EXPECT_EQ(base->validationError(), "");

    litmus::Test dup = *base;
    dup.locations.push_back(dup.locations[0]);
    EXPECT_EQ(dup.validationError(), "duplicate location 'x'");

    litmus::Test bound = *base;
    bound.regInits.push_back({0, "r2", true, "z", 0});
    EXPECT_EQ(bound.validationError(),
              "register r2 bound to unknown location 'z'");

    litmus::Test access = *base;
    access.locations.clear();
    EXPECT_EQ(access.validationError(),
              "T0 accesses unknown location 'x'");
}

TEST(LitmusParser, RoundTripThroughPrinter)
{
    litmus::Test orig = paperlib::mp();
    ParseError err;
    auto reparsed = parseTest(orig.str(), &err);
    ASSERT_TRUE(reparsed.has_value()) << err.message;
    EXPECT_EQ(reparsed->program.numThreads(),
              orig.program.numThreads());
    EXPECT_EQ(reparsed->locations.size(), orig.locations.size());
    EXPECT_EQ(reparsed->scopeTree, orig.scopeTree);
}

TEST(Histogram, CountsAndVerdict)
{
    litmus::Test t = paperlib::mp();
    Histogram h(t);
    FinalState weak;
    weak.regs[{1, "r1"}] = 1;
    weak.regs[{1, "r2"}] = 0;
    FinalState ok;
    ok.regs[{1, "r1"}] = 1;
    ok.regs[{1, "r2"}] = 1;
    h.record(ok);
    h.record(ok);
    h.record(weak);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.observed(), 1u);
    EXPECT_EQ(h.verdict(), "Ok"); // exists, observed
    EXPECT_EQ(h.counts().size(), 2u);
}

TEST(Histogram, KeyIncludesOnlyObservedRegs)
{
    litmus::Test t = paperlib::mp();
    Histogram h(t);
    FinalState st;
    st.regs[{1, "r1"}] = 1;
    st.regs[{1, "r2"}] = 0;
    st.regs[{0, "r9"}] = 77; // not in the condition
    std::string key = h.keyFor(st);
    EXPECT_EQ(key.find("r9"), std::string::npos);
    EXPECT_NE(key.find("1:r1=1"), std::string::npos);
}

TEST(PaperLibrary, AllTestsValidate)
{
    auto tests = paperlib::allTests();
    EXPECT_GE(tests.size(), 20u);
    for (const auto &nt : tests) {
        EXPECT_FALSE(nt.id.empty());
        EXPECT_GE(nt.test.program.numThreads(), 1);
        // validate() already ran in build(); re-run for safety.
        nt.test.validate();
    }
}

TEST(PaperLibrary, CoRRShape)
{
    litmus::Test t = paperlib::coRR();
    EXPECT_EQ(t.program.numThreads(), 2);
    EXPECT_TRUE(t.scopeTree.sameCta(0, 1));
    EXPECT_FALSE(t.scopeTree.sameWarp(0, 1));
    EXPECT_EQ(t.locations.size(), 1u);
}

TEST(PaperLibrary, MpL1UsesCaLoadsAndCgStores)
{
    litmus::Test t = paperlib::mpL1(ptx::Scope::Gl);
    for (const auto &i : t.program.threads[0].instrs) {
        if (i.op == ptx::Opcode::St) {
            EXPECT_EQ(i.cacheOp, ptx::CacheOp::Cg);
        }
    }
    int fences = 0;
    for (const auto &i : t.program.threads[1].instrs) {
        if (i.op == ptx::Opcode::Ld) {
            EXPECT_EQ(i.cacheOp, ptx::CacheOp::Ca);
        }
        fences += i.isFence();
    }
    EXPECT_EQ(fences, 1);
}

TEST(PaperLibrary, MpVolatileIsSharedIntraCta)
{
    litmus::Test t = paperlib::mpVolatile();
    EXPECT_TRUE(t.scopeTree.sameCta(0, 1));
    for (const auto &l : t.locations)
        EXPECT_EQ(l.space, MemSpace::Shared);
}

TEST(PaperLibrary, CasSlMutexInitiallyLocked)
{
    litmus::Test t = paperlib::casSl(false);
    ASSERT_TRUE(t.findLocation("m"));
    EXPECT_EQ(t.findLocation("m")->init, 1);
}

TEST(PaperLibrary, FenceVariantsDifferInName)
{
    EXPECT_NE(paperlib::mpL1(std::nullopt).name,
              paperlib::mpL1(ptx::Scope::Gl).name);
}

} // namespace
} // namespace gpulitmus::litmus
