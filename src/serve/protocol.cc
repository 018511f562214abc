#include "serve/protocol.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
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

const std::vector<std::string> kCommands = {
    "hello",    "list",    "stats",    "metrics",  "sweep",
    "validate", "explore", "scenario", "shutdown",
};

std::optional<Request>
parseRequest(const std::string &line, std::string *error)
{
    auto fail = [error](const std::string &message) {
        if (error)
            *error = message;
        return std::nullopt;
    };
    auto doc = json::parse(line, error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject())
        return fail("request must be a JSON object");

    Request req;
    req.cmd = doc->getString("cmd", "");
    if (req.cmd.empty())
        return fail("missing \"cmd\"");
    if (std::find(kCommands.begin(), kCommands.end(), req.cmd) ==
        kCommands.end())
        return fail("unknown cmd '" + req.cmd +
                    "' (valid: " + join(kCommands, ", ") + ")");
    req.id = doc->getString("id", "");

    for (const auto &t : doc->getArray("tests")) {
        TestSpec spec;
        if (t.isString()) {
            // Shorthand: a bare string is a library id or a scenario
            // spec, disambiguated by the "scenario:" prefix — same as
            // a CLI positional.
            if (scenario::isSpec(t.string()))
                spec.spec = t.string();
            else
                spec.name = t.string();
        } else if (t.isObject()) {
            spec.name = t.getString("name", "");
            spec.source = t.getString("source", "");
            spec.spec = t.getString("spec", "");
        } else {
            return fail("each tests[] entry must be a string or an"
                        " object");
        }
        if (spec.name.empty() && spec.source.empty() &&
            spec.spec.empty())
            return fail("tests[] entry names no test (want name,"
                        " source or spec)");
        req.tests.push_back(std::move(spec));
    }

    for (auto [key, out] : {std::pair{"chips", &req.chips},
                            std::pair{"models", &req.models}}) {
        for (const auto &v : doc->getArray(key)) {
            if (!v.isString())
                return fail(std::string(key) +
                            "[] entries must be strings");
            out->push_back(v.string());
        }
    }
    for (const auto &col : doc->getArray("columns")) {
        if (!col.isNumber() || col.integer() < 1 ||
            col.integer() > 16)
            return fail("columns[] entries must be integers 1..16");
        req.columns.push_back(static_cast<int>(col.integer()));
    }
    int64_t column = doc->getInt("column", 16);
    if (column < 1 || column > 16)
        return fail("column must be 1..16");
    req.column = static_cast<int>(column);
    // Counts are unsigned: a negative one would wrap to ~2^64
    // iterations or replays.
    int64_t iterations = doc->getInt("iterations", 0);
    int64_t budget = doc->getInt("budget", 1 << 20);
    if (iterations < 0)
        return fail("iterations must be >= 0");
    if (budget < 0)
        return fail("budget must be >= 0");
    req.iterations = iterations > 0 ? static_cast<uint64_t>(iterations)
                                    : harness::defaultIterations();
    req.seed = static_cast<uint64_t>(doc->getInt("seed", 0x6c69));
    req.budget = static_cast<uint64_t>(budget);
    req.exact = doc->getBool("exact", false);
    return req;
}

std::vector<int>
parseColumns(const std::string &spec)
{
    std::vector<int> out;
    for (const auto &part : split(spec, ',')) {
        auto dash = part.find('-');
        if (dash != std::string::npos) {
            auto lo = parseInt(part.substr(0, dash));
            auto hi = parseInt(part.substr(dash + 1));
            // Bounds-check before expanding so a typo'd range cannot
            // balloon the list.
            if (!lo || !hi || *lo > *hi || *lo < 1 || *hi > 16)
                return {};
            for (int64_t c = *lo; c <= *hi; ++c)
                out.push_back(static_cast<int>(c));
        } else {
            auto c = parseInt(part);
            if (!c || *c < 1 || *c > 16)
                return {};
            out.push_back(static_cast<int>(*c));
        }
    }
    return out;
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
        if (error)
            *error = "cannot open '" + arg + "'";
        return std::nullopt;
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
    const std::string &v = it->second;
    auto parsed = parseInt(v);
    if (parsed && (!count || *parsed >= 0))
        return parsed;
    if (error) {
        *error = !parsed ? "--" + name + " expects an integer" +
                               (v == "true" ? std::string()
                                            : ", got '" + v + "'")
                         : "--" + name + " must be >= 0, got " + v;
    }
    return std::nullopt;
}

std::optional<Request>
requestFromFlags(const std::string &cmd,
                 const std::vector<std::string> &tests,
                 const std::map<std::string, std::string> &flags,
                 std::string *error)
{
    auto fail = [error](const std::string &message) {
        if (error)
            *error = message;
        return std::nullopt;
    };
    auto flag = [&flags](const std::string &name) -> const std::string * {
        auto it = flags.find(name);
        return it == flags.end() ? nullptr : &it->second;
    };
    std::string bad;
    auto integer = [&](const std::string &name, int64_t fallback,
                       bool count) {
        auto v = intFlag(flags, name, fallback, count,
                         bad.empty() ? &bad : nullptr);
        return v.value_or(fallback);
    };
    auto list = [&flag](const std::string &name) {
        std::vector<std::string> out;
        if (const std::string *v = flag(name)) {
            for (const auto &item : split(*v, ','))
                out.push_back(trim(item));
        }
        return out;
    };

    Request req;
    req.cmd = cmd;
    req.id = flag("id") ? *flag("id") : "cli";
    for (const auto &arg : tests) {
        std::string bad_test;
        auto spec = testSpecFor(arg, &bad_test);
        if (!spec)
            return fail(bad_test);
        req.tests.push_back(std::move(*spec));
    }
    req.chips = list("chips");
    req.models = list("models");
    if (const std::string *v = flag("columns")) {
        req.columns = parseColumns(*v);
        if (req.columns.empty())
            return fail("invalid --columns '" + *v +
                        "' (want e.g. 1-16, 9 or 1,5,9)");
    }
    int64_t column = integer("column", 16, true);
    req.iterations = static_cast<uint64_t>(integer(
        "iterations",
        static_cast<int64_t>(harness::defaultIterations()), true));
    req.seed = static_cast<uint64_t>(integer("seed", 0x6c69, false));
    req.budget = static_cast<uint64_t>(integer("budget", 1 << 20, true));
    req.exact = flag("exact") != nullptr;
    if (!bad.empty())
        return fail(bad);
    if (column < 1 || column > 16)
        return fail("--column must be 1..16");
    req.column = static_cast<int>(column);
    return req;
}

std::string
renderRequest(const Request &req)
{
    std::string out = "{" + jsonField("cmd", req.cmd);
    if (!req.id.empty())
        out += "," + jsonField("id", req.id);
    if (!req.tests.empty()) {
        out += ",\"tests\":[";
        for (size_t i = 0; i < req.tests.size(); ++i) {
            // Exactly one field of a TestSpec is set.
            const TestSpec &t = req.tests[i];
            out += (i ? ",{" : "{") +
                   (!t.spec.empty()     ? jsonField("spec", t.spec)
                    : !t.source.empty() ? jsonField("source", t.source)
                                        : jsonField("name", t.name)) +
                   "}";
        }
        out += "]";
    }
    if (!req.chips.empty())
        out += ",\"chips\":" + jsonStringArray(req.chips);
    if (!req.models.empty())
        out += ",\"models\":" + jsonStringArray(req.models);
    if (!req.columns.empty()) {
        out += ",\"columns\":[";
        for (size_t i = 0; i < req.columns.size(); ++i)
            out += (i ? "," : "") + std::to_string(req.columns[i]);
        out += "]";
    }
    out += ",\"column\":" + std::to_string(req.column);
    out += ",\"iterations\":" + std::to_string(req.iterations);
    out += ",\"seed\":" + std::to_string(req.seed);
    out += ",\"budget\":" + std::to_string(req.budget);
    if (req.exact)
        out += ",\"exact\":true";
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
            if (error) {
                *error = "cannot parse inline test" +
                         (err.line > 0 ? " (line " +
                                             std::to_string(err.line) +
                                             ")"
                                       : std::string()) +
                         ": " + err.message;
            }
            return std::nullopt;
        }
        return LoadedTest{std::move(*test), 0};
    }
    for (auto &named : litmus::paperlib::allTests()) {
        if (named.id == spec.name)
            return LoadedTest{std::move(named.test), 0};
    }
    if (error) {
        std::vector<std::string> ids;
        for (const auto &named : litmus::paperlib::allTests())
            ids.push_back(named.id);
        *error = "unknown test '" + spec.name +
                 "' (library ids: " + join(ids, ", ") + ")";
    }
    return std::nullopt;
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
     * short name identifies it). */
    const Compiled &
    compiledFor(const sim::ChipProfile &chip) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = compiled_[chip.shortName];
        if (!slot) {
            auto c = std::make_unique<Compiled>();
            c->test = eval::compileForChip(loaded.test, chip, &c->quirks);
            if (c->test)
                c->text = harness::TestText::of(*c->test);
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
            if (error) {
                std::vector<std::string> names;
                for (const auto &c : sim::allChips())
                    names.push_back(c.shortName);
                *error = "unknown chip '" + name +
                         "' (valid: " + join(names, ", ") + ")";
            }
            return false;
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
 * — and hand `expand` the cell's base job plus that test. The base job
 * is labelled with the test's name, carries the shared rendering its
 * keys and store digests hash, sits on the `cfg` axes raised to the
 * test's micro-step floor, and has an empty test: expand adds each job
 * with addJob.
 */
template <typename Expand>
void
planOnChips(const ResolvedTest &rt,
            const std::vector<sim::ChipProfile> &chips,
            const harness::RunConfig &cfg, Plan *plan, Expand expand)
{
    harness::Job base;
    base.inc = cfg.inc;
    base.iterations = cfg.iterations;
    base.seed = cfg.seed;
    base.maxMicroSteps =
        std::max(cfg.maxMicroSteps, rt.loaded.minMicroSteps);
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
    harness::RunConfig cfg;
    cfg.iterations = req.iterations;
    cfg.seed = req.seed;

    auto expand = [&](const harness::Job &base, const litmus::Test &test) {
        for (int col : columns)
            addJob(plan, base, test).inc = sim::Incantations::fromColumn(col);
    };
    for (const auto &rt : tests)
        planOnChips(*rt, chips, cfg, plan, expand);
}

bool
planValidate(const Request &req, const std::vector<ResolvedPtr> &tests,
             const std::vector<sim::ChipProfile> &chips, Plan *plan,
             std::string *error)
{
    if (plan->models.empty()) {
        if (error)
            *error = "validate needs at least one model";
        return false;
    }
    harness::RunConfig cfg;
    cfg.iterations = req.iterations;
    cfg.seed = req.seed;
    cfg.inc = sim::Incantations::fromColumn(req.column);

    // The model jobs carry the compiled text of their sim cell so the
    // conformance join compares like with like.
    auto expand = [&](const harness::Job &base, const litmus::Test &test) {
        addJob(plan, base, test);
        if (req.exact) {
            // One exhaustive exploration per sim cell, so the join
            // can upgrade imprecise verdicts to rare/unreachable.
            harness::Job &mc_job = addJob(plan, base, test);
            mc_job.backend = harness::kMcBackend;
            mc_job.iterations = req.budget;
        }
        for (const auto &model : plan->models)
            addJob(plan, base, test).backend = model;
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
        planOnChips(*rt, chips, cfg, plan, expand);
    }
    if (plan->jobs.empty()) {
        if (error) {
            *error = plan->outOfScope
                         ? "no in-scope tests to validate"
                         : "nothing to validate — every cell was"
                           " miscompiled";
        }
        return false;
    }
    return true;
}

bool
planExplore(const Request &req, const std::vector<ResolvedPtr> &tests,
            const std::vector<sim::ChipProfile> &chips, Plan *plan,
            std::string *error)
{
    harness::RunConfig cfg;
    cfg.inc = sim::Incantations::fromColumn(req.column);
    cfg.iterations = req.budget;

    // Out-of-scope tests still explore — the reachable set is a
    // property of the machine — but skip the model join, exactly as
    // validate skips them.
    bool in_scope = true;
    auto expand = [&](const harness::Job &base, const litmus::Test &test) {
        addJob(plan, base, test).backend = harness::kMcBackend;
        if (!in_scope)
            return;
        for (const auto &model : plan->models)
            addJob(plan, base, test).backend = model;
    };
    for (const auto &rt : tests) {
        in_scope = rt->inScope;
        if (!in_scope)
            ++plan->outOfScope;
        planOnChips(*rt, chips, cfg, plan, expand);
    }
    if (plan->jobs.empty()) {
        if (error)
            *error = "nothing to explore — every cell was"
                     " miscompiled";
        return false;
    }
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
    if (req.tests.empty()) {
        if (error)
            *error = "'" + req.cmd + "' needs a tests[] list";
        return false;
    }
    // "scenario" is explore over scenario specs: the planner is the
    // same; the name documents the intent (and the CI smoke uses it).
    const bool sweep = req.cmd == "sweep";
    const bool validate = req.cmd == "validate";
    if (!sweep && !validate && req.cmd != "explore" &&
        req.cmd != "scenario") {
        if (error)
            *error = "cmd '" + req.cmd + "' carries no jobs";
        return false;
    }

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
    if (plan->jobs.empty()) {
        if (error)
            *error = "nothing to sweep — every cell was miscompiled";
        return false;
    }
    return true;
}

Outcome
summarize(const Request &req, const std::vector<eval::EvalResult> &results,
          const eval::ConformanceSink &conformance)
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
    using eval::Conformance;
    out.cells = conformance.cells().size();
    out.sound = conformance.count(Conformance::Sound);
    out.unsound = conformance.count(Conformance::Unsound);
    out.imprecise = conformance.count(Conformance::Imprecise);
    out.rare = conformance.count(Conformance::Rare);
    out.unreachable = conformance.count(Conformance::Unreachable);
    out.inconsistent = conformance.inconsistentCells();

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
