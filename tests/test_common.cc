/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, string helpers, table rendering, and the JSON
 * reader and escaper the serve protocol speaks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/table.h"
#include "eval/backend.h"
#include "serve/protocol.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

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

// ---- json ----------------------------------------------------------

/** A canonical rendering of a parsed value: members in key order,
 * integers as integers, doubles with 17 significant digits and always
 * a fraction or exponent, so they parse back as doubles. */
std::string
render(const json::Value &v)
{
    switch (v.kind()) {
      case json::Value::Kind::Null: return "null";
      case json::Value::Kind::Bool: return v.boolean() ? "true" : "false";
      case json::Value::Kind::Int: return std::to_string(v.integer());
      case json::Value::Kind::Double: {
          char buf[64];
          std::snprintf(buf, sizeof buf, "%.17g", v.number());
          std::string out = buf;
          if (out.find_first_of(".eEn") == std::string::npos)
              out += ".0";
          return out;
      }
      case json::Value::Kind::String:
        return "\"" + jsonEscape(v.string()) + "\"";
      case json::Value::Kind::ArrayKind: {
          std::string out = "[";
          for (const auto &item : v.array())
              out += (out.size() > 1 ? "," : "") + render(item);
          return out + "]";
      }
      case json::Value::Kind::ObjectKind: {
          std::string out = "{";
          for (const auto &[key, item] : v.object()) {
              out += (out.size() > 1 ? ",\"" : "\"") + jsonEscape(key) +
                     "\":" + render(item);
          }
          return out + "}";
      }
    }
    return "?";
}

std::string
parseError(std::string_view text)
{
    std::string error;
    EXPECT_FALSE(json::parse(text, &error).has_value()) << text;
    return error;
}

TEST(Json, CellsRoundTripOverTheCorpusOnEveryChip)
{
    // Every sim, ptx and mc cell of the corpus on all 8 chips: the
    // rendered cell parses, renders canonically, and parses back to
    // the same document.
    std::vector<std::string> sources;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests")) {
        std::string error;
        auto spec = serve::testSpecFor(entry.path().string(), &error);
        ASSERT_TRUE(spec.has_value()) << error;
        sources.push_back(spec->source);
    }
    ASSERT_EQ(sources.size(), 20u);

    serve::Request sweep;
    sweep.cmd = "sweep";
    sweep.chips = {"all"};
    sweep.columns = {16};
    sweep.iterations = 200;
    serve::Request explore;
    explore.cmd = "explore";
    explore.chips = {"all"};
    explore.models = {"ptx"};
    explore.budget = 1 << 12;
    for (const auto &source : sources) {
        sweep.tests.push_back({"", source, ""});
        explore.tests.push_back({"", source, ""});
    }

    eval::Engine engine;
    std::map<std::string, size_t> backends;
    for (const serve::Request *req : {&sweep, &explore}) {
        serve::Plan plan;
        std::string error;
        ASSERT_TRUE(serve::planJobs(*req, &plan, &error)) << error;
        for (const auto &result : engine.run(plan.jobs)) {
            const std::string cell = eval::evalCellJson(result);
            std::string error;
            auto first = json::parse(cell, &error);
            ASSERT_TRUE(first.has_value()) << error << "\n" << cell;
            const std::string canonical = render(*first);
            auto second = json::parse(canonical, &error);
            ASSERT_TRUE(second.has_value()) << error << "\n" << canonical;
            EXPECT_EQ(render(*second), canonical);

            EXPECT_EQ(first->getString("label"), result.label());
            EXPECT_EQ(first->getString("test"), result.job->test.name);
            ++backends[first->getString("backend")];
            if (result.hasHist()) {
                const json::Value *counts = first->find("counts");
                ASSERT_NE(counts, nullptr);
                ASSERT_EQ(counts->object().size(),
                          result.hist->counts().size());
                for (const auto &[key, count] : result.hist->counts())
                    EXPECT_EQ(counts->getInt(key, -1),
                              static_cast<int64_t>(count))
                        << key;
            }
            if (result.hasExact()) {
                const json::Value *reachable = first->find("reachable");
                ASSERT_NE(reachable, nullptr);
                EXPECT_EQ(reachable->object().size(),
                          result.exact->finals.size());
            }
        }
    }
    EXPECT_GT(backends["sim"], 0u);
    EXPECT_GT(backends["mc"], 0u);
    EXPECT_GT(backends["ptx"], 0u);
}

TEST(Json, StringsWithEscapesAtTheEdgesOfARun)
{
    const std::pair<std::string, std::string> cases[] = {
        {R"("")", ""},
        {R"("\"abc")", "\"abc"},
        {R"("abc\"")", "abc\""},
        {R"("a\"b")", "a\"b"},
        {R"("\\")", "\\"},
        {R"("\\\\x\\")", "\\\\x\\"},
        {R"("\n")", "\n"},
        {R"("\nline")", "\nline"},
        {R"("line\n")", "line\n"},
        {R"("\t\r\b\f\/")", "\t\r\b\f/"},
        {"\"\xc3\xa9\"", "\xc3\xa9"},
        {R"("\u00e9")", "\xc3\xa9"},
        {R"("caf\u00e9!")", "caf\xc3\xa9!"},
        {R"("\ud83d\ude00")", "\xf0\x9f\x98\x80"},
        {R"("x\ud83d\ude00y")", "x\xf0\x9f\x98\x80y"},
        // A lone surrogate keeps its code unit (lenient).
        {R"("\ud800")", "\xed\xa0\x80"},
        {R"("\ud800x")", "\xed\xa0\x80x"},
        {R"("\ud800\u0041")", "\xed\xa0\x80" "A"},
        {R"("\udc00")", "\xed\xb0\x80"},
    };
    for (const auto &[text, want] : cases) {
        std::string error;
        auto v = json::parse(text, &error);
        ASSERT_TRUE(v.has_value()) << text << ": " << error;
        ASSERT_TRUE(v->isString()) << text;
        EXPECT_EQ(v->string(), want) << text;
        // Inside an object, as a key and as a value.
        auto obj = json::parse("{" + text + ":" + text + "}", &error);
        ASSERT_TRUE(obj.has_value()) << text << ": " << error;
        EXPECT_EQ(obj->getString(want, "<absent>"), want) << text;
        // And back through the escaper.
        auto again = json::parse("\"" + jsonEscape(want) + "\"", &error);
        ASSERT_TRUE(again.has_value()) << text << ": " << error;
        EXPECT_EQ(again->string(), want) << text;
    }
    // A long run with escapes at both of its ends.
    const std::string run(5000, 'r');
    auto v = json::parse("\"\\n" + run + "\\\"\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->string(), "\n" + run + "\"");
}

TEST(Json, IntegersKeepU64SeedsAndNegatives)
{
    auto max = json::parse("{\"seed\":18446744073709551615}");
    ASSERT_TRUE(max.has_value());
    EXPECT_EQ(static_cast<uint64_t>(max->getInt("seed", 0)),
              UINT64_MAX);
    auto big = json::parse("12345678901234567890");
    ASSERT_TRUE(big.has_value());
    EXPECT_TRUE(big->isInt());
    EXPECT_EQ(static_cast<uint64_t>(big->integer()),
              12345678901234567890ULL);
    auto neg = json::parse("[-42,-9223372036854775807,0,-0]");
    ASSERT_TRUE(neg.has_value());
    ASSERT_EQ(neg->array().size(), 4u);
    EXPECT_EQ(neg->array()[0].integer(), -42);
    EXPECT_EQ(neg->array()[1].integer(), -9223372036854775807LL);
    EXPECT_EQ(neg->array()[2].integer(), 0);
    EXPECT_EQ(neg->array()[3].integer(), 0);
    auto real = json::parse("-1.5e3");
    ASSERT_TRUE(real.has_value());
    EXPECT_FALSE(real->isInt());
    EXPECT_EQ(real->number(), -1500.0);
    EXPECT_EQ(parseError("18446744073709551616"),
              "integer out of range at byte 20");
}

TEST(Json, DepthLimit)
{
    auto nested = [](int depth) {
        return std::string(static_cast<size_t>(depth), '[') +
               std::string(static_cast<size_t>(depth), ']');
    };
    EXPECT_TRUE(json::parse(nested(65)).has_value());
    EXPECT_EQ(parseError(nested(66)), "nesting too deep at byte 65");
    EXPECT_EQ(parseError(nested(1000)), "nesting too deep at byte 65");
}

TEST(Json, ErrorsKeepTheirMessageAndBytePosition)
{
    EXPECT_EQ(parseError("\"ab\x01" "c\""),
              "raw control character in string at byte 4");
    EXPECT_EQ(parseError("{\"k\":\"v\x1f\"}"),
              "raw control character in string at byte 8");
    EXPECT_EQ(parseError("\"abc"), "unterminated string at byte 4");
    EXPECT_EQ(parseError("{\"k\":\"v"), "unterminated string at byte 7");
    EXPECT_EQ(parseError("\"\\u12"), "truncated \\u escape at byte 5");
    EXPECT_EQ(parseError("\"x\\ud83d\\ude"),
              "truncated \\u escape at byte 12");
    EXPECT_EQ(parseError("\"\\"), "truncated escape at byte 2");
    EXPECT_EQ(parseError("\"\\q\""), "invalid escape at byte 3");
    EXPECT_EQ(parseError("{\"a\":1} x"),
              "trailing characters after document at byte 8");
}

/** The escaper as it was written char by char, before bulk runs. */
std::string
referenceEscape(std::string_view s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TEST(Json, AppendingEscaperMatchesJsonEscape)
{
    std::vector<std::string> inputs = {"", "plain", "\"", "\\",
                                       "a\"b\\c\nd\te"};
    std::string every_byte;
    for (int c = 0; c < 256; ++c) {
        inputs.push_back(std::string(1, static_cast<char>(c)));
        inputs.push_back("ab" + std::string(1, static_cast<char>(c)) +
                         "cd");
        every_byte += static_cast<char>(c);
    }
    inputs.push_back(every_byte);
    for (const auto &in : inputs) {
        std::string out = "prefix:";
        appendJsonEscaped(out, in);
        EXPECT_EQ(out, "prefix:" + referenceEscape(in));
        EXPECT_EQ(jsonEscape(in), referenceEscape(in));
    }
}

} // namespace
} // namespace gpulitmus
