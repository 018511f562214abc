/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, string helpers, table rendering, and the JSON
 * reader and escaper the serve protocol speaks (including the header
 * reader, differentially against the full one on served event lines).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/table.h"
#include "eval/backend.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

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
            if (accepted) {
                ASSERT_EQ(out, r % bound) << "bound " << bound << " r " << r;
            }
            rejected += accepted ? 0 : 1;
        }
        // The edge values above include threshold - 1 whenever the
        // zone is non-empty, so the rejection path ran.
        if (threshold > 0) {
            EXPECT_GT(rejected, 0) << "bound " << bound;
        }
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

TEST(Strutil, ParseIntRefusesOutOfRange)
{
    // strtoll saturates and sets ERANGE; a saturated value would run
    // a seed or budget nobody asked for.
    EXPECT_EQ(parseInt("9223372036854775807").value(), INT64_MAX);
    EXPECT_EQ(parseInt("-9223372036854775808").value(), INT64_MIN);
    EXPECT_FALSE(parseInt("9223372036854775808").has_value());
    EXPECT_FALSE(parseInt("99999999999999999999").has_value());
    EXPECT_FALSE(parseInt("-99999999999999999999").has_value());
    EXPECT_FALSE(parseInt("0x10000000000000000").has_value());
    EXPECT_EQ(parseInt("7").value(), 7); // errno from a failure is reset
}

TEST(Strutil, ParseUintTakesTheU64RangeAndNoSign)
{
    EXPECT_EQ(parseUint("18446744073709551615").value(), UINT64_MAX);
    EXPECT_EQ(parseUint(" 0x6c69 ").value(), 0x6c69u);
    EXPECT_FALSE(parseUint("18446744073709551616").has_value());
    EXPECT_FALSE(parseUint("-1").has_value());
    EXPECT_FALSE(parseUint("+1").has_value());
    EXPECT_FALSE(parseUint("1.5").has_value());
    EXPECT_FALSE(parseUint("").has_value());
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
    // A negative magnitude used to wrap: -(2^64 - 1) read as 1, so a
    // hostile "iterations" or "column" became a small valid one.
    auto min = json::parse("-9223372036854775808");
    ASSERT_TRUE(min.has_value());
    EXPECT_EQ(min->integer(), INT64_MIN);
    EXPECT_EQ(parseError("-9223372036854775809"),
              "integer out of range at byte 20");
    EXPECT_EQ(parseError("-18446744073709551615"),
              "integer out of range at byte 21");
    // The header parse refuses what the full parse refuses.
    std::string error;
    EXPECT_FALSE(json::parseHeader(
        "{\"iterations\":-18446744073709551615}", &error));
    EXPECT_NE(error.find("integer out of range"), std::string::npos);
    // A u64 reads back unsigned; a negative integer does not.
    EXPECT_EQ(max->find("seed")->unsignedInteger(), UINT64_MAX);
    EXPECT_EQ(json::parse("9223372036854775807")->unsignedInteger(),
              static_cast<uint64_t>(INT64_MAX));
    EXPECT_FALSE(neg->array()[0].unsignedInteger().has_value());
    EXPECT_FALSE(real->unsignedInteger().has_value());
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

/** The event lines of one served conversation, as the daemon wrote
 * them: the greeting, a validate of mp on Titan with exact cells
 * (accepted, progress, sim/mc/ptx results, summary, done), and a
 * metrics request. */
std::vector<std::string>
servedEventLines()
{
    serve::ServerOptions opts;
    opts.socketPath =
        "/tmp/gls_header_" + std::to_string(::getpid()) + ".sock";
    opts.threads = 2;
    std::string error;
    auto server = serve::Server::create(opts, &error);
    EXPECT_NE(server, nullptr) << error;
    if (!server)
        return {};
    std::thread runner([&server]() { server->run(); });
    std::vector<std::string> lines;
    if (auto client = serve::Client::connectUnix(opts.socketPath, &error)) {
        serve::Request validate;
        validate.cmd = "validate";
        validate.id = "hdr";
        validate.tests = {{"mp", "", ""}};
        validate.chips = {"Titan"};
        validate.iterations = 200;
        validate.exact = true;
        serve::Request metrics;
        metrics.cmd = "metrics";
        metrics.id = "hdr";
        for (const serve::Request *req : {&validate, &metrics}) {
            EXPECT_EQ(client->submit(
                          *req,
                          [&lines](const json::Value &,
                                   const std::string &line) {
                              lines.push_back(line);
                          },
                          &error),
                      0)
                << error;
        }
    } else {
        ADD_FAILURE() << error;
    }
    server->shutdown();
    runner.join();
    return lines;
}

bool
isContainer(const json::Value &v)
{
    return v.isObject() || v.isArray();
}

/** parseHeader accepts `text` exactly when parse does, with the same
 * error; when both accept, the header holds exactly the top-level
 * scalars of the full tree. */
void
expectHeaderMatchesParse(const std::string &text)
{
    std::string full_error, header_error;
    auto full = json::parse(text, &full_error);
    auto header = json::parseHeader(text, &header_error);
    ASSERT_EQ(header.has_value(), full.has_value())
        << text << "\nparse: " << full_error
        << "\nparseHeader: " << header_error;
    if (!full) {
        EXPECT_EQ(header_error, full_error) << text;
        return;
    }
    ASSERT_EQ(header->kind(), full->kind()) << text;
    if (full->isObject()) {
        json::Object scalars;
        for (const auto &[key, member] : full->object()) {
            if (!isContainer(member))
                scalars.emplace(key, member);
        }
        EXPECT_EQ(render(*header), render(json::Value(scalars))) << text;
    } else if (full->isArray()) {
        json::Array scalars;
        for (const auto &item : full->array()) {
            if (!isContainer(item))
                scalars.push_back(item);
        }
        EXPECT_EQ(render(*header), render(json::Value(scalars))) << text;
    } else {
        EXPECT_EQ(render(*header), render(*full)) << text;
    }
}

TEST(Json, HeaderReaderAcceptsExactlyWhatParseAccepts)
{
    const std::vector<std::string> lines = servedEventLines();
    ASSERT_FALSE(HasFailure());

    // The conversation covers every event kind a client dispatches
    // on, and results from both the sampler and the explorer.
    std::set<std::string> kinds, backends;
    std::string result; ///< the sim result line, for the mutants below
    for (const auto &line : lines) {
        auto event = json::parse(line);
        ASSERT_TRUE(event.has_value()) << line;
        kinds.insert(event->getString("event"));
        if (const json::Value *cell = event->find("cell")) {
            backends.insert(cell->getString("backend"));
            if (cell->getString("backend") == "sim")
                result = line;
        }
    }
    for (const char *kind :
         {"hello", "accepted", "result", "summary", "done", "metrics"})
        EXPECT_EQ(kinds.count(kind), 1u) << kind;
    EXPECT_EQ(backends, (std::set<std::string>{"sim", "mc", "ptx"}));

    std::vector<std::string> inputs = lines;
    for (const auto &line : lines) {
        // Every prefix of every line, and trailing garbage.
        for (size_t cut = 0; cut < line.size(); ++cut)
            inputs.push_back(line.substr(0, cut));
        for (const char *tail : {" x", "}", ",", " {}", "\"", " \t"})
            inputs.push_back(line + tail);
    }
    // Bad escapes and a raw control character inside the nested cell.
    const std::string label = "\"cell\":{\"label\":\"";
    const size_t at = result.find(label);
    ASSERT_NE(at, std::string::npos) << result;
    for (const char *bad : {"\\q", "\\u12x4", "\\", "\x01", "\x1f"}) {
        std::string mutant = result;
        mutant.insert(at + label.size(), bad);
        inputs.push_back(mutant);
    }
    // Integers at and past the u64 range inside the cell.
    const std::string column = "\"column\":16";
    ASSERT_NE(result.find(column), std::string::npos) << result;
    for (const char *number :
         {"18446744073709551615", "18446744073709551616",
          "-18446744073709551616", "000000000000000000016",
          "99999999999999999999999", "1e999"}) {
        std::string mutant = result;
        mutant.replace(result.find(column) + column.size() - 2, 2,
                       number);
        inputs.push_back(mutant);
    }
    // The cell wrapped in arrays, across the depth limit of 64.
    const size_t open = at + std::string("\"cell\":").size();
    for (size_t depth : {1, 60, 61, 62, 63, 64, 65, 100}) {
        std::string mutant = result;
        mutant.insert(mutant.size() - 1, std::string(depth, ']'));
        mutant.insert(open, std::string(depth, '['));
        inputs.push_back(mutant);
    }
    // Top-level values that are not objects.
    for (const char *other :
         {"42", "-7.5", "\"text\"", "true", "null", "[]",
          "[1,{\"a\":[2]},\"s\",[3],null]", "{}", "{\"a\":{}}"})
        inputs.push_back(other);

    size_t accepted = 0, refused = 0;
    for (const auto &text : inputs) {
        expectHeaderMatchesParse(text);
        if (HasFailure())
            return;
        ++(json::parse(text) ? accepted : refused);
    }
    // Both sides of the differential are exercised, including the
    // depth limit inside a cell.
    EXPECT_GT(accepted, lines.size());
    EXPECT_GT(refused, inputs.size() / 2);
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
