/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, string helpers, table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "common/table.h"

namespace gpulitmus {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng r(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo_seen |= v == -2;
        hi_seen |= v == 2;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesP)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

/** below()'s reference: the textbook rejection formula, two
 * divisions per draw. */
uint64_t
textbookBelow(Rng &r, uint64_t bound)
{
    uint64_t threshold = -bound % bound;
    for (;;) {
        uint64_t x = r.next();
        if (x >= threshold)
            return x % bound;
    }
}

std::vector<uint64_t>
belowTestBounds()
{
    std::vector<uint64_t> bounds;
    for (uint64_t b = 1; b <= 64; ++b)
        bounds.push_back(b);
    for (uint64_t b : {(1ULL << 32) + 1, (1ULL << 63) + 1, ~0ULL})
        bounds.push_back(b);
    return bounds;
}

TEST(Rng, ReduceMatchesTheTextbookFormulaAtEveryEdge)
{
    // Raw draws fed straight into the rejection step: around 0, the
    // bound, the rejection threshold (2^64 mod bound) and 2^64, plus
    // a spread of random values. For 2^63 + 1 the rejected zone is
    // nearly half the range; for powers of two it is empty.
    Rng spread(31);
    for (uint64_t bound : belowTestBounds()) {
        uint64_t threshold = -bound % bound;
        std::vector<uint64_t> rs = {0, 1, ~0ULL, ~0ULL - 1};
        for (uint64_t edge : {bound, threshold}) {
            for (uint64_t d : {0ULL, 1ULL, 2ULL}) {
                rs.push_back(edge + d);
                rs.push_back(edge - d);
            }
        }
        for (int i = 0; i < 2000; ++i)
            rs.push_back(spread.next());
        int rejected = 0;
        for (uint64_t r : rs) {
            uint64_t out = ~0ULL;
            bool accepted = Rng::reduce(r, bound, out);
            ASSERT_EQ(accepted, r >= threshold)
                << "bound " << bound << " r " << r;
            if (accepted)
                ASSERT_EQ(out, r % bound) << "bound " << bound << " r " << r;
            rejected += accepted ? 0 : 1;
        }
        // The edge values above include threshold - 1 whenever the
        // zone is non-empty, so the rejection path ran.
        if (threshold > 0)
            EXPECT_GT(rejected, 0) << "bound " << bound;
    }
}

TEST(Rng, BelowMatchesTheTextbookStream)
{
    // Same seed, same answers, same stream position afterwards —
    // including the draws a rejection consumes (2^63 + 1 rejects about
    // half of them).
    for (uint64_t bound : belowTestBounds()) {
        Rng a(bound), b(bound);
        for (int i = 0; i < 500; ++i)
            ASSERT_EQ(a.below(bound), textbookBelow(b, bound))
                << "bound " << bound << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "bound " << bound;
    }
}

TEST(Rng, ChanceMatchesTheUniformCompare)
{
    // chance(p) compares the draw's top 53 bits against an integer
    // threshold; it must answer exactly `uniform() < p`. Probe each
    // threshold's neighbours directly, then whole streams.
    const double ps[] = {0x1.0p-60, 0x1.0p-53, 1e-9, 0.02, 0.1, 0.25,
                         1.0 / 3, 0.5, std::nextafter(0.5, 0.0),
                         std::nextafter(0.5, 1.0), 0.6, 0.999999,
                         std::nextafter(1.0, 0.0)};
    for (double p : ps) {
        uint64_t t = Rng::chanceThreshold(p);
        for (uint64_t x = t > 2 ? t - 2 : 0; x <= t + 1; ++x) {
            if (x >= (1ULL << 53))
                break;
            EXPECT_EQ(x < t, static_cast<double>(x) * 0x1.0p-53 < p)
                << "p " << p << " x " << x;
        }
        Rng a(77), b(77);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.chance(p), b.uniform() < p) << "p " << p;
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DiscardEqualsThatManyDraws)
{
    for (uint64_t n : {0ULL, 1ULL, 5ULL, 24ULL, 1000ULL}) {
        Rng a(41), b(41);
        a.discard(n);
        for (uint64_t i = 0; i < n; ++i)
            b.next();
        EXPECT_EQ(a.next(), b.next()) << "n " << n;
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, SplitIndependent)
{
    Rng a(29);
    Rng b = a.split();
    EXPECT_NE(a.next(), b.next());
}

TEST(Strutil, Trim)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("hi"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strutil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strutil, SplitWhitespace)
{
    auto parts = splitWhitespace("  a\t\tb  c ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strutil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("membar.gl", "membar"));
    EXPECT_FALSE(startsWith("mem", "membar"));
    EXPECT_TRUE(endsWith("membar.gl", ".gl"));
    EXPECT_FALSE(endsWith("gl", ".gl"));
}

TEST(Strutil, ParseInt)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("0x10").value(), 16);
    EXPECT_EQ(parseInt("0x80000000").value(), 0x80000000LL);
    EXPECT_FALSE(parseInt("4x2").has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("abc").has_value());
}

TEST(Strutil, Join)
{
    std::vector<std::string> v{"a", "b", "c"};
    EXPECT_EQ(join(v, ", "), "a, b, c");
    EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(Table, AlignsColumns)
{
    Table t;
    t.header({"name", "obs"});
    t.row({"coRR", "11642"});
    t.row({"mp", "3"});
    std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("11642"), std::string::npos);
    // Each line has the same length for rows of equal arity.
    std::istringstream ss(s);
    std::string l1, l2, l3, l4;
    std::getline(ss, l1);
    std::getline(ss, l2);
    std::getline(ss, l3);
    std::getline(ss, l4);
    EXPECT_EQ(l3.size(), l4.size());
}

TEST(Table, HandlesRaggedRows)
{
    Table t;
    t.row({"a"});
    t.row({"b", "c", "d"});
    EXPECT_NE(t.str().find("d"), std::string::npos);
}

} // namespace
} // namespace gpulitmus
