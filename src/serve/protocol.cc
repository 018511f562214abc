#include "serve/protocol.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/json.h"
#include "common/strutil.h"
#include "common/version.h"
#include "eval/backend.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/checker.h"
#include "obs/metrics.h"
#include "opt/amd.h"
#include "scenario/registry.h"
#include "sim/chip.h"

namespace gpulitmus::serve {

std::string
jsonField(const std::string &key, const std::string &value)
{
    return "\"" + jsonEscape(key) + "\":\"" + jsonEscape(value) +
           "\"";
}

std::string
jsonStringArray(const std::vector<std::string> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? ",\"" : "\"") + jsonEscape(values[i]) + "\"";
    return out + "]";
}

std::string
registryJson(const std::vector<std::string> &corpus)
{
    std::string out = jsonField("abi", kAbiVersionString);
    out += ",\"abi_version\":" + std::to_string(kAbiVersion);
    out += ",\"scenarios\":[";
    bool first = true;
    for (const auto &s : scenario::all()) {
        out += first ? "{" : ",{";
        first = false;
        out += jsonField("name", s.name) + "," +
               jsonField("spec", "scenario:" + s.name) + "," +
               jsonField("summary", s.summary) + "," +
               jsonField("paper", s.paperRef) + ",\"max_micro_steps\":" +
               std::to_string(s.maxMicroSteps) + ",\"params\":[";
        bool pfirst = true;
        for (const auto &p : s.params) {
            out += pfirst ? "{" : ",{";
            pfirst = false;
            out += jsonField("name", p.name) + ",\"default\":" +
                   std::to_string(p.defaultValue) + "," +
                   jsonField("help", p.help) + "}";
        }
        out += "]}";
    }
    out += "],\"library\":[";
    first = true;
    for (const auto &t : litmus::paperlib::allTests()) {
        out += (first ? "{" : ",{") + jsonField("id", t.id) + "," +
               jsonField("section", t.section) + "}";
        first = false;
    }
    out += "],\"corpus\":" + jsonStringArray(corpus);
    out += ",\"chips\":[";
    first = true;
    for (const auto &c : sim::allChips()) {
        out += (first ? "{" : ",{") + jsonField("name", c.shortName) +
               "," + jsonField("vendor", c.vendor) + "," +
               jsonField("chip", c.chipName) + "}";
        first = false;
    }
    out += "],\"models\":" + jsonStringArray(eval::builtinModelNames());
    out += ",\"backends\":" +
           jsonStringArray(eval::builtinBackendNames());
    return out;
}

// ---- the request schema ---------------------------------------------

namespace {

/** Command bits; a field is read by a mask of them. */
enum : unsigned { kControl = 1, kSweep = 2, kValidate = 4, kExplore = 8 };
constexpr unsigned kJobs = kSweep | kValidate | kExplore;

/** explore and scenario share a planner; the control commands read
 * only the id. */
const std::vector<std::pair<std::string, unsigned>> kCommands = {
    {"hello", kControl},   {"list", kControl},     {"stats", kControl},
    {"metrics", kControl}, {"sweep", kSweep},      {"validate", kValidate},
    {"explore", kExplore}, {"scenario", kExplore}, {"shutdown", kControl},
};

/** How a value is checked, and spelt as a flag: a list is
 * comma-separated, a column list also takes ranges ("1-4,9"), a switch
 * is its presence, the tests are the positionals. */
enum class Kind { Text, Tests, Strings, Columns, Column, Count, Integer, Seed, Switch };

/** Each kind's placeholder in a usage line, in Kind order (null: not a
 * flag). */
const char *const kPlaceholder[] = {nullptr, nullptr, "A,B", "1-16", "1..16",
                                    "N",     "N",     "N",   ""};

/** The request schema, in wire order: `field(name, kind, read by,
 * member of req)` for each field. What a command reads is what
 * planJobs reads for it. */
template <typename Req, typename Fn>
void
forEachField(Req &req, Fn &&field)
{
    field("id", Kind::Text, kControl | kJobs, req.id);
    field("tests", Kind::Tests, kJobs, req.tests);
    field("chips", Kind::Strings, kJobs, req.chips);
    field("models", Kind::Strings, kValidate | kExplore, req.models);
    field("columns", Kind::Columns, kSweep, req.columns);
    field("column", Kind::Column, kValidate | kExplore, req.column);
    field("iterations", Kind::Count, kSweep | kValidate, req.iterations);
    field("seed", Kind::Seed, kSweep | kValidate, req.seed);
    field("budget", Kind::Count, kValidate | kExplore, req.budget);
    field("exact", Kind::Switch, kValidate, req.exact);
}

/** Set `error`; a `T` that says "failed" (false, 0, nullopt). */
template <typename T = bool>
T
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return T{};
}

/** `cmd`'s bit; 0 + `error` for an unknown command. */
unsigned
commandBit(const std::string &cmd, std::string *error)
{
    std::vector<std::string> names;
    for (const auto &[name, bit] : kCommands) {
        if (name == cmd)
            return bit;
        names.push_back(name);
    }
    return fail<unsigned>(error, "unknown cmd '" + cmd + "' (valid: " +
                                     join(names, ", ") + ")");
}

/** The range and sign check of the integer kinds (a count would wrap
 * to ~2^64 if negative; a seed is any u64; no other kind reaches past
 * INT64_MAX), on the wire, for the request flags and for intFlag.
 * `label` names the field as its source spells it ("budget",
 * "--budget"). */
bool
checkInteger(Kind kind, const json::Value &value, const std::string &label,
             std::string *error)
{
    // Range-check the number as sent: one above INT64_MAX wraps to a
    // negative integer().
    const std::optional<uint64_t> u = value.unsignedInteger();
    const bool wide = u && *u > static_cast<uint64_t>(INT64_MAX);
    const int64_t v = value.integer();
    const std::string got =
        ", got " + (u ? std::to_string(*u) : std::to_string(v));
    if (kind == Kind::Column || kind == Kind::Columns) {
        if (wide || v < 1 || v > 16)
            return fail(error, label + " must be 1..16" + got);
    } else if (kind == Kind::Seed) {
        if (!u)
            return fail(error, label + " must be 0.." +
                                   std::to_string(UINT64_MAX) + got);
    } else if (wide) {
        return fail(error, label + " must be <= " +
                               std::to_string(INT64_MAX) + got);
    } else if (kind == Kind::Count && v < 0) {
        return fail(error, label + " must be >= 0" + got);
    }
    return true;
}

/** The setter of every field, typed by its member: `v` is its wire
 * value (a flag's text made one by flagValue), checked against
 * `kind`. */
template <typename T>
bool
set(T &out, Kind kind, const json::Value &v, const std::string &label,
    std::string *error)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return fail(error, label + " expects a string");
        out = v.string();
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return fail(error, label + " expects true or false");
        out = v.boolean();
    } else if constexpr (std::is_integral_v<T>) {
        if (!v.isInt())
            return fail(error, label + " expects an integer");
        if (!checkInteger(kind, v, label, error))
            return false;
        // A seed above INT64_MAX is wrapped in integer(), and unwrapped
        // by the cast back to u64.
        out = static_cast<T>(v.integer());
    } else if constexpr (std::is_same_v<T, TestSpec>) {
        // A string is a library id or, by its "scenario:" prefix, a
        // scenario spec; an object has exactly one of name, source and
        // spec.
        const bool one = v.isObject() && v.object().size() == 1;
        const json::Value &text = one ? v.object().begin()->second : v;
        const std::string key = one ? v.object().begin()->first
                                : scenario::isSpec(v.string()) ? "spec"
                                                               : "name";
        std::string *slot = key == "name"     ? &out.name
                            : key == "source" ? &out.source
                            : key == "spec"   ? &out.spec
                                              : nullptr;
        if (!slot || !text.isString() || text.string().empty())
            return fail(error, label + " entries must be test names or"
                                       " objects with one of name,"
                                       " source or spec");
        *slot = text.string();
    } else {
        if (!v.isArray())
            return fail(error, label + " expects an array");
        for (const auto &item : v.array()) {
            if (!set(out.emplace_back(), kind, item, label, error))
                return false;
        }
    }
    return true;
}

/** A flag's text as the wire value of a field of `kind`. */
std::optional<json::Value>
flagValue(Kind kind, const std::string &text, const std::string &label,
          std::string *error)
{
    using Result = std::optional<json::Value>;
    if (kind == Kind::Text)
        return json::Value(text);
    if (kind == Kind::Switch)
        return json::Value(true);
    if (kind != Kind::Strings && kind != Kind::Columns) {
        // A number parses at the whole u64 range, or signed, as on the
        // wire: checkInteger then refuses it with the same message.
        if (auto u = parseUint(text))
            return json::Value(*u);
        if (auto v = parseInt(text))
            return json::Value(*v);
        return fail<Result>(error, label + " expects an integer, got '" +
                                       text + "'");
    }
    json::Array items;
    for (const auto &part : split(text, ',')) {
        if (kind == Kind::Strings) {
            items.emplace_back(trim(part));
            continue;
        }
        // "lo-hi" or one column; a typo'd range must not balloon.
        auto dash = part.find('-');
        auto lo = parseInt(part.substr(0, dash));
        auto hi = dash == std::string::npos ? lo
                                            : parseInt(part.substr(dash + 1));
        if (!lo || !hi || *lo > *hi || *hi - *lo >= 16)
            return fail<Result>(error, "invalid " + label + " '" + text +
                                           "' (want e.g. 1-16, 9 or 1,5,9)");
        for (int64_t n = 0; n <= *hi - *lo; ++n)
            items.emplace_back(*lo + n);
    }
    return json::Value(std::move(items));
}

/** Set field `name` of `req` (whose command has bit `reads`) from its
 * `wire` value, or from a flag's `text` when `wire` is null. False +
 * `error` naming the field when it is unknown (a flag outside the
 * schema is the command line's own: true), the command does not read
 * it or its kind refuses the value. */
bool
setField(Request &req, unsigned reads, const std::string &name,
         const json::Value *wire, const std::string &text,
         std::string *error)
{
    const std::string label = wire ? name : "--" + name;
    std::optional<bool> ok;
    forEachField(req, [&](const char *field, Kind kind, unsigned readBy,
                          auto &member) {
        if (name != field || (!wire && kind == Kind::Tests))
            return;
        if (!(readBy & reads)) {
            ok = fail(error, "'" + req.cmd + "' does not read " + label);
            return;
        }
        std::optional<json::Value> flag;
        if (!wire)
            flag = flagValue(kind, text, label, error);
        const json::Value *value = wire ? wire : flag ? &*flag : nullptr;
        ok = value && set(member, kind, *value, label, error);
    });
    if (!ok && wire)
        return fail(error, "unknown field '" + name + "'");
    return ok.value_or(true);
}

/** Append a field's wire value to `out`. */
template <typename T>
void
appendJson(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out += '"' + jsonEscape(v) + '"';
    } else if constexpr (std::is_same_v<T, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_arithmetic_v<T>) {
        out += std::to_string(v);
    } else if constexpr (std::is_same_v<T, TestSpec>) {
        // Exactly one field of a TestSpec is set.
        out += '{';
        out += !v.spec.empty()     ? jsonField("spec", v.spec)
               : !v.source.empty() ? jsonField("source", v.source)
                                   : jsonField("name", v.name);
        out += '}';
    } else {
        out += '[';
        for (size_t i = 0; i < v.size(); ++i) {
            out += i ? "," : "";
            appendJson(out, v[i]);
        }
        out += ']';
    }
}

} // namespace

std::optional<Request>
parseRequest(const std::string &line, std::string *error)
{
    auto doc = json::parse(line, error);
    if (!doc)
        return std::nullopt;
    const json::Value *cmd = doc->find("cmd");
    if (!cmd || !cmd->isString())
        return fail<std::optional<Request>>(
            error, doc->isObject() ? "missing \"cmd\""
                                   : "request must be a JSON object");
    Request req;
    req.cmd = cmd->string();
    const unsigned reads = commandBit(req.cmd, error);
    if (!reads)
        return std::nullopt;
    for (const auto &[name, value] : doc->object()) {
        if (name != "cmd" && !setField(req, reads, name, &value, "", error))
            return std::nullopt;
    }
    return req;
}

std::optional<TestSpec>
testSpecFor(const std::string &arg, std::string *error)
{
    TestSpec spec;
    if (scenario::isSpec(arg)) {
        spec.spec = arg;
    } else if (std::ifstream in{arg}) {
        std::stringstream buffer;
        buffer << in.rdbuf();
        spec.source = buffer.str();
    } else if (arg.find('/') != std::string::npos ||
               endsWith(arg, ".litmus")) {
        return fail<std::optional<TestSpec>>(error,
                                             "cannot open '" + arg + "'");
    } else {
        spec.name = arg; // a paper-library id
    }
    return spec;
}

std::optional<int64_t>
intFlag(const std::map<std::string, std::string> &flags,
        const std::string &name, int64_t fallback, bool count,
        std::string *error)
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    const Kind kind = count ? Kind::Count : Kind::Integer;
    auto v = flagValue(kind, it->second, "--" + name, error);
    if (!v || !checkInteger(kind, *v, "--" + name, error))
        return std::nullopt;
    return v->integer();
}

std::optional<Request>
requestFromFlags(const std::string &cmd,
                 const std::vector<std::string> &tests,
                 const std::map<std::string, std::string> &flags,
                 std::string *error)
{
    Request req;
    req.cmd = cmd;
    req.id = "cli";
    // An empty tests[] asks the schema whether the command reads tests.
    const json::Value none{json::Array{}};
    const unsigned reads = commandBit(cmd, error);
    if (!reads ||
        (!tests.empty() && !setField(req, reads, "tests", &none, "", error)))
        return std::nullopt;
    for (const auto &arg : tests) {
        auto spec = testSpecFor(arg, error);
        if (!spec)
            return std::nullopt;
        req.tests.push_back(std::move(*spec));
    }
    for (const auto &[name, text] : flags) {
        if (!setField(req, reads, name, nullptr, text, error))
            return std::nullopt;
    }
    return req;
}

std::vector<std::pair<std::string, std::string>>
requestFlags(const std::string &cmd)
{
    const unsigned reads = cmd.empty() ? ~0u : commandBit(cmd, nullptr);
    std::vector<std::pair<std::string, std::string>> out;
    Request req;
    forEachField(req, [&](const char *name, Kind kind, unsigned readBy,
                          auto &) {
        if ((readBy & reads) && kPlaceholder[static_cast<int>(kind)])
            out.push_back({name, kPlaceholder[static_cast<int>(kind)]});
    });
    return out;
}

std::string
renderRequest(const Request &req)
{
    const unsigned reads = commandBit(req.cmd, nullptr);
    std::string out = "{" + jsonField("cmd", req.cmd);
    forEachField(req, [&](const char *name, Kind, unsigned readBy,
                          const auto &v) {
        if (readBy & reads) {
            out += ",\"" + std::string(name) + "\":";
            appendJson(out, v);
        }
    });
    return out + "}";
}

std::optional<LoadedTest>
resolveTest(const TestSpec &spec, std::string *error)
{
    if (!spec.spec.empty()) {
        auto built = scenario::buildSpec(spec.spec, error);
        if (!built)
            return std::nullopt;
        return LoadedTest{std::move(built->test),
                          built->maxMicroSteps};
    }
    if (!spec.source.empty()) {
        litmus::ParseError err;
        auto test = litmus::parseTest(spec.source, &err);
        if (!test) {
            return fail<std::optional<LoadedTest>>(
                error, "cannot parse inline test" +
                           (err.line > 0 ? " (line " +
                                               std::to_string(err.line) + ")"
                                         : std::string()) +
                           ": " + err.message);
        }
        return LoadedTest{std::move(*test), 0};
    }
    for (auto &named : litmus::paperlib::allTests()) {
        if (named.id == spec.name)
            return LoadedTest{std::move(named.test), 0};
    }
    std::vector<std::string> ids;
    for (const auto &named : litmus::paperlib::allTests())
        ids.push_back(named.id);
    return fail<std::optional<LoadedTest>>(
        error, "unknown test '" + spec.name + "' (library ids: " +
                   join(ids, ", ") + ")");
}

// ---- planning -------------------------------------------------------

namespace {

/**
 * A TestSpec resolved once and shared by every plan that names it: the
 * loaded test, its as-written rendering, its model scope and, made on
 * first use, each AMD chip's compilation. Everything but the
 * compilations is fixed at construction; those sit behind a mutex.
 */
class ResolvedTest
{
  public:
    /** The test as one AMD chip's (simulated) OpenCL compiler emits it. */
    struct Compiled
    {
        std::optional<litmus::Test> test; ///< nullopt: miscompiled
        std::vector<std::string> quirks;
        std::shared_ptr<const harness::TestText> text;
    };

    explicit ResolvedTest(LoadedTest test)
        : loaded(std::move(test)),
          text(harness::TestText::of(loaded.test)),
          inScope(model::inModelScope(loaded.test))
    {
    }

    /** `chip`'s compilation (an AMD chip from the registry, so its
     * short name identifies it): what its (simulated) OpenCL compiler
     * emits, or nullopt when it miscompiles the test (the paper's
     * "n/a" cells). */
    const Compiled &
    compiledFor(const sim::ChipProfile &chip) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = compiled_[chip.shortName];
        if (!slot) {
            auto c = std::make_unique<Compiled>();
            opt::AmdCompileResult out = opt::amdCompile(loaded.test, chip);
            c->quirks = std::move(out.quirks);
            if (!out.miscompiled) {
                c->test = std::move(out.compiled);
                c->text = harness::TestText::of(*c->test);
            }
            slot = std::move(c);
        }
        return *slot;
    }

    const LoadedTest loaded;
    /** `loaded.test` rendered: what Nvidia chips run. */
    const std::shared_ptr<const harness::TestText> text;
    const bool inScope; ///< model::inModelScope(loaded.test)

  private:
    mutable std::mutex mutex_;
    mutable std::map<std::string, std::unique_ptr<const Compiled>>
        compiled_;
};

using ResolvedPtr = std::shared_ptr<const ResolvedTest>;

/** The planner's memo: TestSpec key -> resolved test, within the
 * kTestMemoMax* caps. */
struct TestMemo
{
    std::mutex mutex;
    std::unordered_map<std::string, ResolvedPtr> entries;
    size_t keyBytes = 0;
};

TestMemo &
testMemo()
{
    static TestMemo memo;
    return memo;
}

/** The field resolveTest reads, tagged with its kind. */
std::string
memoKey(const TestSpec &spec)
{
    if (!spec.spec.empty())
        return "c" + spec.spec;
    if (!spec.source.empty())
        return "s" + spec.source;
    return "n" + spec.name;
}

/** resolveTest through the memo. Failures are not memoised: a bad
 * spec pays its diagnosis every time, and gives the same one. */
ResolvedPtr
resolveMemoised(const TestSpec &spec, std::string *error)
{
    static obs::Counter &hits =
        obs::counter("serve_test_cache_hits_total");
    static obs::Counter &misses =
        obs::counter("serve_test_cache_misses_total");
    TestMemo &memo = testMemo();
    std::string key = memoKey(spec);
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        if (auto it = memo.entries.find(key); it != memo.entries.end()) {
            hits.add();
            return it->second;
        }
    }
    misses.add();
    auto loaded = resolveTest(spec, error);
    if (!loaded)
        return nullptr;
    ResolvedPtr entry = std::make_shared<const ResolvedTest>(
        std::move(*loaded));
    if (key.size() > kTestMemoMaxKeyBytes)
        return entry;
    std::lock_guard<std::mutex> lock(memo.mutex);
    if (memo.entries.size() >= kTestMemoMaxEntries ||
        memo.keyBytes + key.size() > kTestMemoMaxKeyBytes) {
        memo.entries.clear();
        memo.keyBytes = 0;
    }
    const size_t key_bytes = key.size();
    auto [it, inserted] = memo.entries.emplace(std::move(key), entry);
    if (inserted)
        memo.keyBytes += key_bytes;
    return it->second; // a racing planner's entry is as good
}

bool
resolveChips(const Request &req,
             const std::vector<sim::ChipProfile> &fallback,
             std::vector<sim::ChipProfile> *out, std::string *error)
{
    if (req.chips.empty()) {
        *out = fallback;
        return true;
    }
    if (req.chips.size() == 1 && req.chips[0] == "all") {
        *out = sim::allChips();
        return true;
    }
    for (const auto &name : req.chips) {
        // sim::chip() is fatal on unknown names; a typo'd request
        // must error instead of killing the daemon.
        const sim::ChipProfile *chip = sim::findChip(name);
        if (!chip) {
            std::vector<std::string> names;
            for (const auto &c : sim::allChips())
                names.push_back(c.shortName);
            return fail(error, "unknown chip '" + name + "' (valid: " +
                                   join(names, ", ") + ")");
        }
        out->push_back(*chip);
    }
    return true;
}

/** Resolve the model list: default ptx, "none" empties it, every id
 * must be a model backend (not "sim"/"mc"). */
bool
resolveModels(const Request &req, std::vector<std::string> *out,
              std::string *error)
{
    std::vector<std::string> models = req.models;
    if (models.empty())
        models.push_back("ptx");
    if (models.size() == 1 && models[0] == "none")
        return true;
    for (const auto &id : models) {
        if (!eval::modelBackendByName(id, error))
            return false;
        out->push_back(id);
    }
    return true;
}

/** Append a job: `base` (whose test is empty) running `test`. The one
 * copy of the test a planned job makes. */
harness::Job &
addJob(Plan *plan, const harness::Job &base, const litmus::Test &test)
{
    plan->jobs.push_back(base);
    plan->jobs.back().test = test;
    return plan->jobs.back();
}

/**
 * The loop every planner shares: for each chip, take the test as that
 * chip runs it — as written on Nvidia, the memoised compilation on AMD,
 * recording compile notes and miscompiled (test, chip) cells in `plan`
 * — and hand `expand` the cell's job plus that test. That job is
 * `base` labelled with the test's name, carrying the shared rendering
 * its keys and store digests hash, its micro-step bound raised to the
 * test's floor, and with an empty test: expand adds each job with
 * addJob.
 */
template <typename Expand>
void
planOnChips(const ResolvedTest &rt,
            const std::vector<sim::ChipProfile> &chips,
            harness::Job base, Plan *plan, Expand expand)
{
    base.maxMicroSteps =
        std::max(base.maxMicroSteps, rt.loaded.minMicroSteps);
    base.label = rt.loaded.test.name;
    for (const auto &chip : chips) {
        const litmus::Test *to_run = &rt.loaded.test;
        base.text = rt.text;
        if (chip.isAmd()) {
            const ResolvedTest::Compiled &compiled = rt.compiledFor(chip);
            for (const auto &q : compiled.quirks)
                plan->notes.push_back("compile note (" + chip.shortName +
                                      "): " + q);
            if (!compiled.test) {
                plan->skipped.push_back(rt.loaded.test.name + " on " +
                                        chip.shortName);
                continue;
            }
            to_run = &*compiled.test;
            base.text = compiled.text;
        }
        base.chip = chip;
        expand(base, *to_run);
    }
}

void
planSweep(const Request &req, const std::vector<ResolvedPtr> &tests,
          const std::vector<sim::ChipProfile> &chips, Plan *plan)
{
    std::vector<int> columns = req.columns;
    if (columns.empty()) {
        for (int c = 1; c <= 16; ++c)
            columns.push_back(c);
    }
    harness::Job base;
    base.iterations = req.iterations;
    base.seed = req.seed;

    auto expand = [&](const harness::Job &cell, const litmus::Test &test) {
        for (int col : columns)
            addJob(plan, cell, test).inc = sim::Incantations::fromColumn(col);
    };
    for (const auto &rt : tests)
        planOnChips(*rt, chips, base, plan, expand);
}

bool
planValidate(const Request &req, const std::vector<ResolvedPtr> &tests,
             const std::vector<sim::ChipProfile> &chips, Plan *plan,
             std::string *error)
{
    if (plan->models.empty())
        return fail(error, "validate needs at least one model");
    harness::Job base;
    base.iterations = req.iterations;
    base.seed = req.seed;
    base.inc = sim::Incantations::fromColumn(req.column);

    // The model jobs carry the compiled text of their sim cell so the
    // conformance join compares like with like.
    auto expand = [&](const harness::Job &cell, const litmus::Test &test) {
        addJob(plan, cell, test);
        if (req.exact) {
            // One exhaustive exploration per sim cell, so the join
            // can upgrade imprecise verdicts to rare/unreachable.
            harness::Job &mc_job = addJob(plan, cell, test);
            mc_job.backend = harness::kMcBackend;
            mc_job.iterations = req.budget;
        }
        for (const auto &model : plan->models)
            addJob(plan, cell, test).backend = model;
    };
    for (const auto &rt : tests) {
        // Tests outside the model's scope (.ca / volatile accesses,
        // Sec. 5.5) are excluded exactly as in the paper.
        if (!rt->inScope) {
            plan->notes.push_back(
                rt->loaded.test.name +
                " is outside the model scope (.ca/volatile/loops,"
                " Sec. 5.5); skipped");
            ++plan->outOfScope;
            continue;
        }
        planOnChips(*rt, chips, base, plan, expand);
    }
    if (plan->jobs.empty())
        return fail(error, plan->outOfScope
                               ? "no in-scope tests to validate"
                               : "nothing to validate — every cell was"
                                 " miscompiled");
    return true;
}

bool
planExplore(const Request &req, const std::vector<ResolvedPtr> &tests,
            const std::vector<sim::ChipProfile> &chips, Plan *plan,
            std::string *error)
{
    harness::Job base;
    base.inc = sim::Incantations::fromColumn(req.column);
    base.iterations = req.budget;

    // Out-of-scope tests still explore — the reachable set is a
    // property of the machine — but skip the model join, exactly as
    // validate skips them.
    bool in_scope = true;
    auto expand = [&](const harness::Job &cell, const litmus::Test &test) {
        addJob(plan, cell, test).backend = harness::kMcBackend;
        if (!in_scope)
            return;
        for (const auto &model : plan->models)
            addJob(plan, cell, test).backend = model;
    };
    for (const auto &rt : tests) {
        in_scope = rt->inScope;
        if (!in_scope)
            ++plan->outOfScope;
        planOnChips(*rt, chips, base, plan, expand);
    }
    if (plan->jobs.empty())
        return fail(error, "nothing to explore — every cell was"
                           " miscompiled");
    return true;
}

} // namespace

TestMemoStats
testMemoStats()
{
    TestMemo &memo = testMemo();
    std::lock_guard<std::mutex> lock(memo.mutex);
    return {memo.entries.size(), memo.keyBytes};
}

bool
planJobs(const Request &req, Plan *plan, std::string *error)
{
    if (req.tests.empty())
        return fail(error, "'" + req.cmd + "' needs a tests[] list");
    // "scenario" is explore over scenario specs: the planner is the
    // same; the name documents the intent (and the CI smoke uses it).
    const bool sweep = req.cmd == "sweep";
    const bool validate = req.cmd == "validate";
    if (!sweep && !validate && req.cmd != "explore" &&
        req.cmd != "scenario")
        return fail(error, "cmd '" + req.cmd + "' carries no jobs");

    // Default chips: the Nvidia chips of the paper's result rows for
    // validate (the models target PTX), the Titan otherwise.
    std::vector<sim::ChipProfile> fallback;
    if (validate) {
        for (const auto &c : sim::resultChips()) {
            if (c.isNvidia())
                fallback.push_back(c);
        }
    } else {
        fallback.push_back(sim::chip("Titan"));
    }
    std::vector<sim::ChipProfile> chips;
    if (!resolveChips(req, fallback, &chips, error))
        return false;
    for (const auto &chip : chips)
        plan->chips.push_back(chip.shortName);
    if (!sweep && !resolveModels(req, &plan->models, error))
        return false;
    // A parse failure names the tests[] entry: inline source carries
    // no name yet.
    std::vector<ResolvedPtr> tests;
    tests.reserve(req.tests.size());
    for (size_t i = 0; i < req.tests.size(); ++i) {
        auto rt = resolveMemoised(req.tests[i], error);
        if (!rt) {
            if (error && !req.tests[i].source.empty())
                *error = "tests[" + std::to_string(i) + "]: " + *error;
            return false;
        }
        tests.push_back(std::move(rt));
    }

    if (validate)
        return planValidate(req, tests, chips, plan, error);
    if (!sweep)
        return planExplore(req, tests, chips, plan, error);
    planSweep(req, tests, chips, plan);
    if (plan->jobs.empty())
        return fail(error, "nothing to sweep — every cell was miscompiled");
    return true;
}

Outcome
summarize(const Request &req, const std::vector<eval::EvalResult> &results)
{
    Outcome out;
    out.results = results.size();
    std::unordered_set<uint64_t> seen;
    bool observed_forbidden = false;
    for (const auto &r : results) {
        out.fromStore += r.fromStore ? 1 : 0;
        const bool not_exists =
            r.job->test.quantifier == litmus::Quantifier::NotExists;
        if (r.hasHist() && not_exists && r.hist->observed() > 0)
            observed_forbidden = true;
        if (!r.hasExact() || !seen.insert(r.job->cacheKey()).second)
            continue;
        const mc::ExploreResult &x = *r.exact;
        if (!x.complete && !x.fairComplete)
            ++out.bounded;
        if (not_exists && !x.satisfying.empty())
            ++out.forbiddenReachable;
    }
    out.conformance = eval::conform(results);
    for (const eval::ConformanceCell &cell : out.conformance) {
        switch (cell.kind) {
          case eval::Conformance::Sound: ++out.sound; break;
          case eval::Conformance::Unsound: ++out.unsound; break;
          case eval::Conformance::Imprecise: ++out.imprecise; break;
          case eval::Conformance::Rare: ++out.rare; break;
          case eval::Conformance::Unreachable: ++out.unreachable; break;
          case eval::Conformance::Bounded: break;
        }
        out.inconsistent += !cell.inconsistent.empty();
    }

    // 2 for a failed check, per command: a sampled ~exists condition
    // (sweep), an unsound or inconsistent cell (validate), an unsound
    // cell or a reachable ~exists condition (explore).
    bool failed = false;
    if (req.cmd == "sweep")
        failed = observed_forbidden;
    else if (req.cmd == "validate")
        failed = out.unsound > 0 || out.inconsistent > 0;
    else
        failed = out.unsound > 0 || out.forbiddenReachable > 0;
    out.exit = failed ? 2 : 0;
    return out;
}

} // namespace gpulitmus::serve
