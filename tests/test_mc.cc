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
#include <random>
#include <sstream>
#include <unordered_map>

#include "cat/models.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "mc/memo.h"
#include "model/checker.h"
#include "scenario/registry.h"

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

TEST(ChoiceRefactor, SamplerBitIdenticalToGoldenInterCtaL1)
{
    // Fig. 3's mp with .ca loads, across CTAs: the reader's L1 sits on
    // another SM than the writer's, and with thread randomisation on
    // either SM may be the lower one — the shape that observes which
    // SMs a store writes back to. Captured at seed 12345 from the
    // build that still reset and wrote back every SM.
    const struct
    {
        const char *chip;
        int column;
        uint64_t observed;
    } golden[] = {{"GTX5", 6, 9},    {"GTX5", 16, 251},
                  {"TesC", 6, 41},   {"TesC", 16, 398},
                  {"GTX6", 6, 13},   {"GTX6", 16, 253},
                  {"Titan", 6, 36},  {"Titan", 16, 384}};
    litmus::Test test = litmus::paperlib::mpL1(std::nullopt);
    for (const auto &g : golden) {
        harness::RunConfig cfg;
        cfg.iterations = 5000;
        cfg.seed = 12345;
        cfg.inc = sim::Incantations::fromColumn(g.column);
        litmus::Histogram hist =
            harness::run(sim::chip(g.chip), test, cfg);
        EXPECT_EQ(hist.observed(), g.observed)
            << g.chip << " column " << g.column;
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

TEST(ChoiceRefactor, SkipChancesConsumesWhatTheChancesWould)
{
    // The sampler's batched irrelevant chances advance the Rng exactly
    // as n chance() calls: one draw each for 0 < p < 1, none at the
    // extremes (Rng::chance does not draw there).
    for (double p : {0.0, 0.3, 0.9, 1.0}) {
        for (int n : {0, 1, 24, 56}) {
            Rng a(5), b(5);
            sim::RngChoice batched(a), single(b);
            batched.skipChances(sim::ChoiceKind::L1Warm, p, n);
            for (int i = 0; i < n; ++i)
                single.chance(sim::ChoiceKind::L1Warm, p, false);
            EXPECT_EQ(a.next(), b.next()) << "p " << p << " n " << n;
        }
    }
}

// ---------------------------------------------------------------------
// Explorer: exact reachable sets.
// ---------------------------------------------------------------------

TEST(Explorer, MpTitanReachesExactlyThePtxAllowedSet)
{
    mc::ExploreResult r = explore("mp.litmus", "Titan", 16);
    ASSERT_TRUE(r.complete);
    // The pruning anchor: checkpointing and digest keys must not
    // change what gets explored, only how fast. Eager issue walks
    // 1,296 replays; the lazy traversal, kept as the differential
    // oracle, walks 4,400.
    EXPECT_EQ(r.stats.replays, 1296u);
    mc::ExploreOptions lazy;
    lazy.eagerIssue = false;
    mc::ExploreResult l = explore("mp.litmus", "Titan", 16, lazy);
    ASSERT_TRUE(l.complete);
    EXPECT_EQ(l.stats.replays, 4400u);
    EXPECT_EQ(l.finals.size(), r.finals.size());
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
    // Sleep sets, state caching and eager issue are pure pruning:
    // every on/off combination reaches the same final states. (The
    // unpruned tree is big; column 6 keeps the raw enumeration
    // CI-sized.)
    for (const char *file : {"mp.litmus", "sb.litmus"}) {
        std::set<std::string> base;
        uint64_t base_replays = 0;
        for (int mode = 0; mode < 8; ++mode) {
            mc::ExploreOptions opts;
            opts.sleepSets = mode & 1;
            opts.stateCache = mode & 2;
            opts.eagerIssue = mode & 4;
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
            if (mode == 3 || mode == 7) {
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

TEST(Explorer, HashKeysAgreeWithStringKeysOverTheScenarioVariants)
{
    // The corpus is loop-free; the spin-loop scenarios are what
    // exercise grey erases, sleep-empty erases and loop-dedup cuts.
    // Same digest-vs-string agreement, at a capped budget so the
    // heavy variants stay CI-sized (bounded results must agree too).
    size_t checked = 0;
    for (const auto &s : scenario::all()) {
        for (int fenced = 0; fenced <= 1; ++fenced) {
            std::string spec = "scenario:" + s.name +
                               ",fenced=" + std::to_string(fenced);
            std::string error;
            auto built = scenario::buildSpec(spec, &error);
            ASSERT_TRUE(built) << error;
            mc::ExploreOptions fast;
            fast.machine.inc = sim::Incantations::fromColumn(16);
            fast.machine.maxMicroSteps = std::max(
                fast.machine.maxMicroSteps, built->maxMicroSteps);
            fast.maxReplays = 20000;
            mc::ExploreOptions debug = fast;
            debug.debugStateKeys = true;
            mc::ExploreResult a =
                mc::Explorer(sim::chip("TesC"), built->test, fast)
                    .explore();
            mc::ExploreResult b =
                mc::Explorer(sim::chip("TesC"), built->test, debug)
                    .explore();
            EXPECT_EQ(a.finals, b.finals) << spec;
            EXPECT_EQ(a.satisfying, b.satisfying) << spec;
            EXPECT_EQ(a.complete, b.complete) << spec;
            EXPECT_EQ(a.fairComplete, b.fairComplete) << spec;
            EXPECT_EQ(a.stats.replays, b.stats.replays) << spec;
            EXPECT_EQ(a.stats.stateCuts, b.stats.stateCuts) << spec;
            EXPECT_EQ(a.stats.distinctStates, b.stats.distinctStates)
                << spec;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 14u);
}

// ---------------------------------------------------------------------
// StateMemo: the flat segmented table against a node-based reference.
// ---------------------------------------------------------------------

/** Keys crafted to stress the table's layout: `seg` picks the segment
 * (top bits of hi), `home` the low bits of lo, which are the probe
 * start at every segment size up to 2^20 slots; `j` keeps keys
 * distinct without moving either. */
Digest128
memoKey(uint64_t seg, uint64_t home, uint64_t j)
{
    return {(j << 20) | (home & 0xfffff),
            (seg << (64 - mc::StateMemo::kSegmentBits)) | j};
}

void
expectSameEntry(const mc::VisitEntry *got, const mc::VisitEntry &want)
{
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->executedSig, want.executedSig);
    EXPECT_EQ(got->word, want.word);
}

TEST(StateMemo, BackwardShiftAcrossTheSegmentEnd)
{
    // A fresh segment has kMinSlots slots. Three keys homed at the
    // last slot fill it and wrap to slots 0 and 1; a key homed at
    // slot 0 lands in slot 2. Erasing the first key must pull the
    // wrapped run back across the end without losing anyone.
    const uint64_t last = mc::StateMemo::kMinSlots - 1;
    mc::StateMemo memo;
    std::vector<Digest128> keys = {memoKey(9, last, 1),
                                   memoKey(9, last, 2),
                                   memoKey(9, last, 3),
                                   memoKey(9, 0, 4)};
    for (size_t i = 0; i < keys.size(); ++i)
        EXPECT_TRUE(
            memo.emplace(keys[i], mc::VisitEntry::grey(i, i)).second);
    EXPECT_FALSE(memo.emplace(keys[2], mc::VisitEntry::grey(7, 7))
                     .second);
    EXPECT_TRUE(memo.erase(keys[0]));
    EXPECT_FALSE(memo.erase(keys[0]));
    EXPECT_EQ(memo.find(keys[0]), nullptr);
    for (size_t i = 1; i < keys.size(); ++i)
        expectSameEntry(memo.find(keys[i]),
                        mc::VisitEntry::grey(i, i));
    EXPECT_EQ(memo.size(), 3u);
}

TEST(StateMemo, RandomOperationsMatchAnUnorderedMapReference)
{
    // Most keys crowd one segment with homes clustered at the segment
    // end and start: long probe runs, wrap-around, backward shifts
    // across the wrap, and that segment growing 16 -> 1024 slots
    // while the others stay small.
    std::mt19937_64 rng(0x6d656d6f);
    std::vector<Digest128> pool;
    for (uint64_t j = 0; j < 700; ++j) {
        uint64_t seg = j % 8 == 7 ? rng() % 64 : 3;
        uint64_t home;
        switch (j % 5) {
          case 0: home = 0xfffff; break; // the last slot, any size
          case 1: home = 0xffffe; break;
          case 2: home = 0; break;
          case 3: home = 1; break;
          default: home = rng(); break;
        }
        pool.push_back(memoKey(seg, home, j));
    }
    mc::StateMemo memo;
    std::unordered_map<Digest128, mc::VisitEntry, Digest128::Hasher> ref;
    for (int op = 0; op < 30000; ++op) {
        // Drift the working set: insert-heavy first, erase-heavy in
        // the middle third, balanced at the end.
        int phase = op / 10000;
        const Digest128 &key = pool[rng() % pool.size()];
        uint64_t r = rng() % 10;
        if (r < (phase == 1 ? 3u : 6u)) {
            mc::VisitEntry e = mc::VisitEntry::grey(rng() % 1000, rng());
            if (rng() % 2)
                e.blacken(rng() % 100000);
            auto [got, inserted] = memo.emplace(key, e);
            auto [it, ref_inserted] = ref.emplace(key, e);
            EXPECT_EQ(inserted, ref_inserted);
            expectSameEntry(got, it->second);
        } else if (r < 8) {
            EXPECT_EQ(memo.erase(key), ref.erase(key) > 0);
        } else {
            auto it = ref.find(key);
            if (it == ref.end())
                EXPECT_EQ(memo.find(key), nullptr);
            else
                expectSameEntry(memo.find(key), it->second);
        }
        ASSERT_EQ(memo.size(), ref.size()) << "op " << op;
        if (op % 1000 == 999) {
            for (const Digest128 &k : pool) {
                auto it = ref.find(k);
                if (it == ref.end())
                    EXPECT_EQ(memo.find(k), nullptr);
                else
                    expectSameEntry(memo.find(k), it->second);
            }
        }
    }
    EXPECT_GT(memo.bytes(), 0u);
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

/** Reachable final-state keys of `text` on Titan column 16, lazy or
 * eager issue. */
std::set<std::string>
reachableKeys(const char *text, bool eager)
{
    auto test = litmus::parseTest(text);
    EXPECT_TRUE(test.has_value());
    mc::ExploreOptions opts;
    opts.machine.inc = sim::Incantations::fromColumn(16);
    opts.eagerIssue = eager;
    mc::ExploreResult r =
        mc::Explorer(sim::chip("Titan"), *test, opts).explore();
    EXPECT_TRUE(r.complete);
    std::set<std::string> keys;
    for (const auto &[key, weight] : r.finals)
        keys.insert(key);
    return keys;
}

TEST(Explorer, EagerIssueBranchesAtAWriteAfterWriteHazard)
{
    // The load into r1 is in flight when `mov r1,5` can issue: the
    // issue time decides r1. Issued early, the load lands last (r1 =
    // x = 1); issued after the load commits, the mov lands last (r1
    // = 5). Eager issue must keep both: stopping at the hazard loses
    // the first, issuing through it loses the second.
    const char *text = R"(GPU_PTX waw
{global x=1;}
 T0               ;
 ld.cg.s32 r1,[x] ;
 mov.s32 r1,5     ;
ScopeTree(grid(cta((warp T0))))
exists (0:r1=5)
)";
    for (bool eager : {false, true}) {
        std::set<std::string> keys = reachableKeys(text, eager);
        EXPECT_EQ(keys, (std::set<std::string>{"0:r1=1;", "0:r1=5;"}))
            << (eager ? "eager" : "lazy");
    }
}

TEST(Explorer, EagerIssueBranchesAtAReadOfAnInFlightDestination)
{
    // Both loads write r1. When the y load (2) overtakes the x load
    // (1), its commit clears r1's pending bit while the x load is
    // still in flight; the add may then read r1 before or after that
    // load lands. Reading it after (r1 = r2 = 1) needs the add's
    // issue to stay a choice.
    const char *text = R"(GPU_PTX raw
{global x=1; global y=2;}
 T0                 ;
 ld.cg.s32 r1,[x]   ;
 ld.cg.s32 r1,[y]   ;
 add.s32 r2,r1,0    ;
ScopeTree(grid(cta((warp T0))))
exists (0:r1=1 /\ 0:r2=1)
)";
    std::set<std::string> lazy = reachableKeys(text, false);
    EXPECT_TRUE(lazy.count("0:r1=1; 0:r2=1;"));
    EXPECT_EQ(reachableKeys(text, true), lazy);
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
