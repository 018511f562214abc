/**
 * @file
 * The gpulitmus command-line tool — the workflow of the paper's
 * litmus/herd/diy tools behind one binary.
 *
 * Everywhere a test is named, a .litmus file path, a registry-scenario
 * spec `scenario:<name>[,k=v...]` (e.g.
 * `scenario:spinlock_dot_product,threads=3,fenced=1`) or a built-in
 * paper-library id (e.g. `mp`) is accepted; `gpulitmus list`
 * enumerates the registry and the library.
 *
 *   gpulitmus run <test> [--chip NAME] [--iterations N]
 *            [--column 1..16]            run a test on a simulated chip
 *   gpulitmus sweep <test...> [--chips A,B] [--columns 1-16]
 *            [--jobs N] [--iterations N] [--json FILE]
 *                                        batched campaign over a
 *                                        (chip x column) grid
 *   gpulitmus check <test> [--model NAME]
 *                                        herd-style model evaluation
 *   gpulitmus validate <test...> [--models A,B] [--chips A,B]
 *            [--column 1..16] [--jobs N] [--iterations N]
 *            [--exact] [--budget N] [--json FILE]
 *                                        conformance campaign: run the
 *                                        tests on the simulator AND
 *                                        through the models, join the
 *                                        verdicts (Sec. 5.4); --exact
 *                                        adds an exhaustive
 *                                        exploration per cell so
 *                                        imprecise verdicts upgrade
 *   gpulitmus explore <test...> [--chips A,B|all]
 *            [--column 1..16] [--budget N] [--jobs N] [--models A,B]
 *            [--json FILE]               exhaustive schedule
 *                                        exploration (stateless model
 *                                        checking with DPOR): the
 *                                        exact reachable final-state
 *                                        set per (chip, test), joined
 *                                        against the models; for
 *                                        ~exists tests (application
 *                                        scenarios) a reachable
 *                                        forbidden state is a
 *                                        definitive failure (exit 2)
 *   gpulitmus list [--json] [--corpus DIR]
 *                                        enumerate registry scenarios
 *                                        (with parameters), corpus
 *                                        tests, chips, models and
 *                                        backends
 *   gpulitmus show <file.litmus>         parse and pretty-print
 *   gpulitmus lint <tests...> [--json]   static race & fence
 *                                        analysis (docs/ANALYSIS.md):
 *                                        proven-racy / possibly-racy
 *                                        / proven-ordered per pair
 *                                        with file:line diagnostics;
 *                                        exit 2 on proven-racy
 *   gpulitmus sass <file.litmus> [-O N] [--sdk V] [--maxwell]
 *                                        assemble + optcheck
 *   gpulitmus generate [--max-edges N] [--max-tests N] [--steer]
 *                                        diy-style test generation
 *                                        (stdout)
 *   gpulitmus gen --out DIR [--max-edges N] [--max-tests N]
 *            [--min-edges N] [--no-scopes] [--no-deps] [--steer]
 *                                        write the generated corpus
 *                                        to .litmus files (cycle
 *                                        name, scope tree and final
 *                                        condition included)
 *   gpulitmus chips                      list the chip registry
 *   gpulitmus models                     list the built-in models
 *   gpulitmus serve --socket PATH|--port N [--store DIR] [--jobs N]
 *            [--max-store-bytes N]       persistent validation daemon
 *                                        (docs/SERVE.md): line-JSON
 *                                        requests over a Unix socket
 *                                        or loopback TCP, answers
 *                                        repeated jobs from the
 *                                        durable result store
 *   gpulitmus submit <sweep|validate|explore|scenario|list|stats|
 *            shutdown> [tests...] --socket PATH|--port N
 *            [batch flags] [--json]      submit one request to a
 *                                        running daemon; exit status
 *                                        mirrors the batch command
 *   gpulitmus status --socket PATH|--port N [--watch N] [--json]
 *                                        daemon + store counters and
 *                                        telemetry; --watch N polls
 *                                        every N seconds and redraws,
 *                                        --json emits the raw event
 *                                        lines for scripting
 *
 * `sweep`, `validate` and `explore` are in-process clients of the
 * daemon's planner: their flags become the serve::Request `submit`
 * would send, planned by serve::planJobs and run on eval::Engine, so a
 * batch run and a served one evaluate the same cells. They also
 * accept --store DIR to reuse the daemon's durable result store
 * without a daemon: the second run of the same campaign answers from
 * disk.
 *
 * Every command accepts `--trace FILE`: spans for the run (requests,
 * jobs, explorations) are written as Chrome trace-event JSON, ready
 * for https://ui.perfetto.dev (docs/OBSERVABILITY.md). GPULITMUS_OBS=0
 * disables all telemetry; results are bit-identical either way.
 *
 * Exit status: 0 on success, 1 on usage/parse errors (including a
 * malformed integer flag or a negative count), 2 when a check
 * fails (optcheck violation, ~exists condition observed or
 * mc-reachable, or an unsound validate/explore cell).
 */

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race.h"
#include "cat/models.h"
#include "common/strutil.h"
#include "common/version.h"
#include "eval/backend.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "model/baseline.h"
#include "model/checker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/store.h"
#include "opt/optcheck.h"
#include "opt/ptxas.h"

using namespace gpulitmus;

namespace {

struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    bool
    has(const std::string &name) const
    {
        return flags.count(name) > 0;
    }

    std::string
    get(const std::string &name, const std::string &fallback) const
    {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }

    /** Integer flag value (serve::intFlag), or `fallback` when the
     * flag is absent. A malformed value is a usage error (exit 1),
     * never a silent fallback. */
    int64_t
    getInt(const std::string &name, int64_t fallback,
           bool count = false) const
    {
        std::string error;
        auto v = serve::intFlag(flags, name, fallback, count, &error);
        if (!v)
            usageError(error);
        return *v;
    }

    /** getInt for counts (budget, iterations, jobs, ...): a negative
     * value is a usage error too. */
    uint64_t
    getCount(const std::string &name, uint64_t fallback) const
    {
        return static_cast<uint64_t>(
            getInt(name, static_cast<int64_t>(fallback), true));
    }

    [[noreturn]] static void
    usageError(const std::string &message)
    {
        std::cerr << "error: " << message << "\n";
        std::exit(1);
    }
};

Args
parseArgs(int argc, char **argv, int start)
{
    Args args;
    for (int i = start; i < argc; ++i) {
        std::string a = argv[i];
        if (startsWith(a, "--")) {
            std::string name = a.substr(2);
            std::string value = "true";
            auto eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
            } else if (i + 1 < argc && argv[i + 1][0] != '-') {
                value = argv[++i];
            }
            args.flags[name] = value;
        } else if (startsWith(a, "-O")) {
            // Both `-O3` and `-O 3`.
            args.flags["opt-level"] =
                a.size() == 2 && i + 1 < argc ? argv[++i] : a.substr(2);
        } else {
            args.positional.push_back(a);
        }
    }
    return args;
}

/**
 * Resolve one test argument — a .litmus path, a registry-scenario spec
 * ("scenario:<name>[,k=v...]") or a paper-library id — exactly as the
 * planner resolves a request's tests. Prints the diagnostic and
 * returns nullopt on failure.
 */
std::optional<serve::LoadedTest>
loadTest(const std::string &arg)
{
    std::string error;
    auto spec = serve::testSpecFor(arg, &error);
    if (!spec) {
        std::cerr << "error: " << error << "\n";
        return std::nullopt;
    }
    auto loaded = serve::resolveTest(*spec, &error);
    if (!loaded)
        std::cerr << "error: " << arg << ": " << error << "\n";
    return loaded;
}

int
cmdRun(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus run <test> [--chip"
                     " NAME] [--iterations N] [--column 1..16]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;

    harness::RunConfig cfg;
    cfg.iterations =
        args.getCount("iterations", harness::defaultIterations());
    cfg.seed = static_cast<uint64_t>(args.getInt("seed", 0x6c69));
    cfg.maxMicroSteps =
        std::max(cfg.maxMicroSteps, loaded->minMicroSteps);
    int column = static_cast<int>(args.getCount("column", 16));
    cfg.inc = sim::Incantations::fromColumn(column);
    const sim::ChipProfile &chip =
        sim::chip(args.get("chip", "Titan"));

    std::vector<std::string> quirks;
    auto compiled = eval::compileForChip(loaded->test, chip, &quirks);
    for (const auto &q : quirks)
        std::cout << "compile note: " << q << "\n";
    if (!compiled) {
        std::cout << "test miscompiled for " << chip.shortName
                  << ": result is n/a\n";
        return 2;
    }
    const litmus::Test &to_run = *compiled;

    std::cout << "chip: " << chip.vendor << " " << chip.chipName
              << "; incantations: " << cfg.inc.str() << "; "
              << cfg.iterations << " iterations\n\n";
    litmus::Histogram hist = harness::run(chip, to_run, cfg);
    std::cout << hist.str();
    if (to_run.quantifier == litmus::Quantifier::NotExists &&
        hist.observed() > 0)
        return 2;
    return 0;
}

/** A batch command, planned: its request, the plan, the --store the
 * engine reads through (may be null) and the engine itself. */
struct Batch
{
    serve::Request req;
    serve::Plan plan;
    std::unique_ptr<serve::ResultStore> store;
    std::unique_ptr<eval::Engine> engine;
};

/**
 * The batch commands' front half: the command line as a serve::Request
 * (the same one `submit` would send), planned in-process by the
 * daemon's own planner, and an engine with --jobs workers over the
 * --store. Planner notes go to stderr. nullopt after printing the
 * error.
 */
std::optional<Batch>
planBatch(const std::string &cmd, const Args &args)
{
    std::string error;
    auto req = serve::requestFromFlags(cmd, args.positional, args.flags,
                                       &error);
    if (!req) {
        std::cerr << "error: " << error << "\n";
        return std::nullopt;
    }
    Batch batch;
    batch.req = std::move(*req);
    bool planned = serve::planJobs(batch.req, &batch.plan, &error);
    for (const auto &note : batch.plan.notes)
        std::cerr << note << "\n";
    if (!planned) {
        std::cerr << "error: " << error << "\n";
        for (const auto &cell : batch.plan.skipped)
            std::cerr << "  " << cell << "\n";
        return std::nullopt;
    }
    // --store DIR: the durable result store (serve/store.h) slots in
    // behind the engine cache, so a repeated campaign answers from
    // disk. A requested store that cannot open is an error — silently
    // dropping it would turn "instant warm run" into a full recompute.
    if (args.has("store")) {
        serve::StoreOptions sopts;
        sopts.maxBytes = args.getCount("max-store-bytes", 0);
        // Offline CLI use: skip the per-flush fsync; torn-tail
        // recovery covers a crash, and the OS flushes on exit anyway.
        sopts.syncOnFlush = false;
        batch.store = serve::ResultStore::open(args.get("store", ""),
                                               sopts, &error);
        if (!batch.store) {
            std::cerr << "error: " << error << "\n";
            return std::nullopt;
        }
    }
    eval::EngineOptions opts;
    opts.threads = static_cast<int>(args.getCount("jobs", 0));
    opts.store = batch.store.get();
    batch.engine = std::make_unique<eval::Engine>(opts);
    return batch;
}

/** A stderr progress line every `n` computed jobs. The denominator is
 * computed jobs: cells served from the cache or the store, or deduped
 * onto a batch-mate (model cells across chips), are never reported,
 * so it is below the result count by design. */
eval::ProgressFn
progressEvery(size_t n)
{
    return [n](size_t done, size_t total, const eval::EvalResult &) {
        if (done % n == 0 || done == total)
            std::cerr << "  computed " << done << "/" << total
                      << " jobs\r";
    };
}

/**
 * Honour --json FILE (bare --json: `fallback`): `write(path)` the
 * document, then print `lead` + "wrote <path>" + `tail`. Returns
 * `exit_code`, or on a write failure 1 — unless the run already
 * failed a check: exit 2 is the documented signal CI keys on and
 * outranks the IO error.
 */
template <typename Write>
int
writeJsonFlag(const Args &args, const std::string &fallback,
              int exit_code, Write write, const std::string &lead = "",
              const std::string &tail = "")
{
    if (!args.has("json"))
        return exit_code;
    std::string path = args.get("json", fallback);
    if (path == "true")
        path = fallback;
    if (!write(path)) {
        std::cerr << "error: cannot write '" << path << "'\n";
        return exit_code == 2 ? 2 : 1;
    }
    std::cout << lead << "wrote " << path << tail << "\n";
    return exit_code;
}

/** Flush the --store and print the one-line epilogue: how much of
 * the campaign came from disk and what was added (the cold/warm
 * signal BENCH_serve.json gates). */
void
finishStore(serve::ResultStore *store)
{
    if (!store)
        return;
    store->flush();
    serve::StoreStats s = store->stats();
    std::cout << "store " << store->dir() << ": " << s.hits
              << " hits, " << s.misses << " misses, " << s.appends
              << " new records (" << store->size() << " total)\n";
}

int
cmdSweep(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus sweep <test...> [--chips"
                     " A,B] [--columns 1-16] [--jobs N]"
                     " [--iterations N] [--seed S] [--json FILE]"
                     " [--store DIR]\n";
        return 1;
    }
    auto batch = planBatch("sweep", args);
    if (!batch)
        return 1;
    const serve::Request &req = batch->req;
    const serve::Plan &plan = batch->plan;
    eval::Engine &engine = *batch->engine;

    std::vector<std::string> tests;
    for (const auto &job : plan.jobs) {
        if (std::find(tests.begin(), tests.end(), job.label) ==
            tests.end())
            tests.push_back(job.label);
    }
    // One row per chip; a multi-test sweep keys rows by test too.
    eval::TableSink table(
        "chip",
        tests.size() == 1
            ? eval::TableSink::byChip()
            : [](const eval::EvalResult &r) {
                  return r.label() + "@" + r.chip().shortName;
              },
        eval::TableSink::byColumn());
    eval::JsonSink json;
    std::vector<eval::EvalSink *> sinks{&table};
    if (args.has("json"))
        sinks.push_back(&json);

    std::cout << "sweep: " << join(tests, ", ") << ", "
              << req.iterations << " iterations/cell, "
              << engine.threads() << " worker threads\n\n";
    auto results = engine.run(plan.jobs, sinks);
    table.render().print(std::cout);
    for (const auto &cell : plan.skipped)
        std::cout << cell << ": miscompiled (n/a)\n";
    finishStore(batch->store.get());

    // Exit 2 when a ~exists condition was observed anywhere in the
    // grid, mirroring `run`.
    int exit_code =
        serve::summarize(req, results, eval::ConformanceSink{}).exit;
    return writeJsonFlag(
        args, "sweep.json", exit_code,
        [&](const std::string &path) { return json.writeFile(path); },
        "\n", " (" + std::to_string(json.size()) + " cells)");
}

int
cmdCheck(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus check <test>"
                     " [--model ptx|rmo|sc|tso|operational]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    const litmus::Test &test = loaded->test;
    // Same scope policy as validate/explore and AxiomBackend: the
    // models have nothing to say about .ca/volatile accesses, and a
    // looped program would not enumerate in useful time.
    if (!model::inModelScope(test)) {
        std::cerr << "error: '" << args.positional[0]
                  << "' is outside the model scope (.ca/volatile/"
                     "loops, Sec. 5.5); use the sim or mc backends\n";
        return 1;
    }
    std::string error;
    auto backend =
        eval::modelBackendByName(args.get("model", "ptx"), &error);
    if (!backend) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    const cat::Model &m = backend->model();
    model::Checker checker(m);
    model::Verdict v = checker.check(test);
    std::cout << "model " << m.name() << ": " << v.numCandidates
              << " candidates, " << v.numAllowed << " allowed\n";
    std::cout << "condition "
              << litmus::toString(test.quantifier) << " ("
              << test.condition.str() << "): " << v.verdict << "\n";
    std::cout << "allowed outcomes:\n";
    for (const auto &key : v.allowedKeys)
        std::cout << "  " << key << "\n";
    if (!v.forbiddenKeys.empty()) {
        std::cout << "forbidden outcomes:\n";
        for (const auto &key : v.forbiddenKeys)
            std::cout << "  " << key << "\n";
    }
    if (v.conditionSatisfiable && v.witness) {
        std::cout << "witness execution:\n" << v.witness->str();
    } else if (v.forbiddenWitness) {
        std::cout << "closest forbidden execution (killed by "
                  << v.forbiddingCheck << "):\n"
                  << v.forbiddenWitness->str();
    }
    return 0;
}

/**
 * The Sec. 5.4 workflow as one campaign: run every test on every chip
 * through the simulator AND through the requested models, join the
 * histograms against the verdicts, and classify each cell as sound /
 * unsound / imprecise. Exit 2 when any cell is unsound.
 */
int
cmdValidate(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus validate <test...>"
                     " [--models A,B] [--chips A,B|all]"
                     " [--column 1..16] [--jobs N] [--iterations N]"
                     " [--seed S] [--exact] [--budget N] [--json FILE]"
                     " [--store DIR]\n";
        return 1;
    }
    auto batch = planBatch("validate", args);
    if (!batch)
        return 1;
    const serve::Request &req = batch->req;
    const serve::Plan &plan = batch->plan;
    eval::Engine &engine = *batch->engine;

    std::cout << "validate: " << req.tests.size() - plan.outOfScope
              << " tests";
    if (plan.outOfScope > 0)
        std::cout << " (+" << plan.outOfScope << " out of scope)";
    std::cout << ", " << plan.chips.size() << " chips, models "
              << join(plan.models, ",") << ", " << req.iterations
              << " iterations/cell, column " << req.column << ", "
              << engine.threads() << " worker threads\n\n";

    eval::ConformanceSink conformance;
    auto results =
        engine.run(plan.jobs, {&conformance}, progressEvery(50));
    std::cerr << "\n";

    conformance.summary().print(std::cout);
    for (const auto &cell : conformance.cells()) {
        if (cell.kind == eval::Conformance::Unsound) {
            std::cout << "UNSOUND: " << cell.test << " on "
                      << cell.chip << " (column " << cell.column
                      << ", model " << cell.model
                      << "): observed-but-forbidden";
            for (const auto &key : cell.violations)
                std::cout << " '" << key << "'";
            std::cout << "\n";
        }
        for (const auto &key : cell.inconsistent)
            std::cout << "INCONSISTENT: " << cell.test << " on "
                      << cell.chip << ": sampled '" << key
                      << "' escaped the exhaustive exploration\n";
    }
    for (const auto &cell : plan.skipped)
        std::cout << cell << ": miscompiled (n/a)\n";

    // An explorer/simulator divergence is as fatal as unsoundness:
    // the tool's own invariant (sampled outcomes stay inside the
    // exact set) failed, so nothing it printed can be trusted.
    serve::Outcome outcome = serve::summarize(req, results, conformance);
    std::cout << "\n" << outcome.cells << " cells: " << outcome.sound
              << " sound, " << outcome.unsound << " unsound, "
              << outcome.imprecise << " imprecise";
    if (req.exact) {
        std::cout << ", " << outcome.rare << " rare, "
                  << outcome.unreachable << " unreachable, "
                  << conformance.count(eval::Conformance::Bounded)
                  << " bounded";
    }
    std::cout << "\n";
    finishStore(batch->store.get());

    return writeJsonFlag(args, "validate.json", outcome.exit,
                         [&](const std::string &path) {
                             return conformance.writeFile(path);
                         });
}

/**
 * Stateless model checking of the corpus: one exhaustive exploration
 * per (test, chip) cell, printing the exact reachable final-state
 * set, then the conformance join against the requested models. A
 * reachable-but-forbidden state is a definitive unsoundness (exit 2);
 * an allowed-but-unreachable one is definitive model slack.
 */
int
cmdExplore(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus explore <test...>"
                     " [--chips A,B|all] [--column 1..16]"
                     " [--budget N] [--jobs N]"
                     " [--models A,B|none]"
                     " [--json FILE] [--store DIR]\n";
        return 1;
    }
    auto batch = planBatch("explore", args);
    if (!batch)
        return 1;
    const serve::Request &req = batch->req;
    const serve::Plan &plan = batch->plan;
    eval::Engine &engine = *batch->engine;

    std::cout << "explore: " << req.tests.size() << " tests";
    if (plan.outOfScope > 0)
        std::cout << " (" << plan.outOfScope
                  << " outside the model scope)";
    std::cout << ", " << plan.chips.size() << " chips, budget "
              << req.budget << " replays/cell"
              << ", column " << req.column << ", models "
              << (plan.models.empty() ? std::string("none")
                                      : join(plan.models, ","))
              << ", " << engine.threads() << " worker threads\n\n";

    eval::ConformanceSink conformance;
    eval::JsonSink json;
    std::vector<eval::EvalSink *> sinks{&conformance};
    if (args.has("json"))
        sinks.push_back(&json);
    auto results = engine.run(plan.jobs, sinks, progressEvery(10));
    std::cerr << "\n";

    // A reachable satisfying state of a ~exists test (an application
    // scenario's "wrong result") is a definitive failure: the
    // explorer exhibits a concrete schedule, no sampling luck
    // involved. Unreachability claims are graded by completeness:
    // proven (complete), proven for all terminating executions
    // (fairComplete — spin-loop scenarios), or merely unobserved
    // within the budget.
    for (const auto &r : results) {
        if (!r.hasExact() || r.fromCache)
            continue;
        const mc::ExploreResult &x = *r.exact;
        std::cout << r.label() << "@" << x.chipName << " (column "
                  << x.column << "): " << x.finals.size()
                  << " reachable states, "
                  << (x.complete       ? "complete"
                      : x.fairComplete ? "complete (fair schedules)"
                                       : "BOUNDED")
                  << ", " << x.stats.replays << " replays, "
                  << x.stats.distinctStates << " states, "
                  << x.stats.sleepSkips << " sleep skips\n";
        for (const auto &[key, weight] : x.finals) {
            std::cout << "    " << weight << "  " << key
                      << (x.satisfying.count(key) ? "  *" : "")
                      << "\n";
        }
        // Bounded verdicts get their burn-down so they are
        // diagnosable: which budget bit and how the search was shaped
        // when it did (the budget comes from the job so store-served
        // cells report it too — their advisory result fields are 0).
        if (!x.complete && !x.fairComplete) {
            uint64_t budget = r.job->iterations;
            std::cout << "  bounded after " << x.stats.replays << "/"
                      << budget << " replays ("
                      << (budget ? x.stats.replays * 100 / budget : 0)
                      << "%), " << x.stats.distinctStates
                      << " states cached, deepest frontier "
                      << x.stats.peakDepth << ", "
                      << x.stats.resumes << " resumes\n";
        }
        if (r.job->test.quantifier != litmus::Quantifier::NotExists)
            continue;
        if (!x.satisfying.empty()) {
            std::cout << "  FORBIDDEN-REACHABLE (definitive):";
            for (const auto &key : x.satisfying)
                std::cout << " '" << key << "'";
            std::cout << "\n";
        } else if (x.complete) {
            std::cout << "  forbidden condition exact-unreachable:"
                         " proven over every schedule\n";
        } else if (x.fairComplete) {
            std::cout << "  forbidden condition exact-unreachable"
                         " for every terminating execution (spin"
                         " loops explored modulo the runaway"
                         " guard)\n";
        } else {
            std::cout << "  forbidden condition not reached within"
                         " the budget (no proof)\n";
        }
    }

    if (!plan.models.empty()) {
        std::cout << "\n";
        conformance.summary().print(std::cout);
        for (const auto &cell : conformance.cells()) {
            if (cell.kind != eval::Conformance::Unsound)
                continue;
            std::cout << "UNSOUND: " << cell.test << " on "
                      << cell.chip << " (model " << cell.model
                      << "): reachable-but-forbidden";
            for (const auto &key : cell.violations)
                std::cout << " '" << key << "'";
            std::cout << "\n";
        }
    }
    serve::Outcome outcome = serve::summarize(req, results, conformance);
    for (const auto &cell : plan.skipped)
        std::cout << cell << ": miscompiled (n/a)\n";
    if (outcome.bounded > 0)
        std::cout << outcome.bounded << " cells hit the budget (bounded"
                     " verdicts); raise --budget for exact sets\n";
    if (outcome.forbiddenReachable > 0)
        std::cout << outcome.forbiddenReachable
                  << " cells reach their forbidden condition\n";
    finishStore(batch->store.get());

    return writeJsonFlag(
        args, "explore.json", outcome.exit,
        [&](const std::string &path) { return json.writeFile(path); },
        "", " (" + std::to_string(json.size()) + " cells)");
}

int
cmdShow(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus show <test>\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    std::cout << loaded->test.str();
    return 0;
}

/**
 * `gpulitmus lint <tests...> [--json]` — static race & fence
 * analysis (docs/ANALYSIS.md). Classifies every cross-thread
 * conflicting pair as proven-racy / possibly-racy / proven-ordered
 * with file:line diagnostics; exit 2 when any pair is proven racy.
 */
int
cmdLint(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus lint"
                     " <file.litmus|scenario:name[,k=v...]>..."
                     " [--json]\n";
        return 1;
    }
    bool json = args.has("json");
    bool any_proven = false;
    std::string jout = "[";
    for (size_t i = 0; i < args.positional.size(); ++i) {
        const std::string &arg = args.positional[i];
        auto loaded = loadTest(arg);
        if (!loaded)
            return 1;
        analysis::Report rep = analysis::analyze(loaded->test);
        any_proven = any_proven || rep.anyProven();
        if (json) {
            if (i)
                jout += ",";
            jout += "{\"source\":\"" + jsonEscape(arg) +
                    "\",\"report\":" + rep.json() + "}";
        } else {
            std::cout << arg << ": " << rep.str();
        }
    }
    if (json)
        std::cout << jout << "]\n";
    return any_proven ? 2 : 0;
}

int
cmdSass(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus sass <file.litmus> [-O N]"
                     " [--sdk V] [--maxwell]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    opt::PtxasOptions opts;
    opts.optLevel = static_cast<int>(args.getInt("opt-level", 3));
    opts.sdkVersion = args.get("sdk", "6.0");
    opts.targetMaxwell = args.has("maxwell");
    opt::SassProgram sass = opt::assemble(loaded->test, opts);
    std::cout << sass.disassemble();
    auto check = opt::optcheck(sass);
    std::cout << check.str();
    return check.ok ? 0 : 2;
}

int
cmdGenerate(const Args &args)
{
    gen::GeneratorOptions opts;
    opts.maxEdges = static_cast<int>(args.getInt("max-edges", 4));
    opts.maxTests =
        static_cast<size_t>(args.getInt("max-tests", 20));
    opts.steer = args.has("steer");
    auto tests = gen::generate(gen::defaultPool(), opts);
    for (const auto &g : tests) {
        std::cout << "(* cycle: " << g.cycleName << " *)\n";
        if (g.predictedRacyPairs >= 0)
            std::cout << "(* predicted racy pairs: "
                      << g.predictedRacyPairs << " *)\n";
        std::cout << g.test.str() << "\n";
    }
    std::cerr << tests.size() << " tests generated\n";
    return 0;
}

/** File-system-safe name for a generated cycle: spaces join with '+'
 * (diy style); anything else unusual becomes '_'. */
std::string
cycleFileName(const std::string &cycle)
{
    std::string out;
    for (char c : cycle) {
        if (c == ' ')
            out += '+';
        else if (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '.' || c == '-' || c == '+' || c == '_')
            out += c;
        else
            out += '_';
    }
    return out;
}

/**
 * The generated corpus as files: every cycle the generator closes
 * becomes DIR/<cycle>.litmus — cycle name (header + comment), scope
 * tree and final condition included — ready for `sweep`, `validate`
 * and `explore`.
 */
int
cmdGen(const Args &args)
{
    std::string out_dir = args.get("out", "generated-tests");
    gen::GeneratorOptions opts;
    opts.minEdges = static_cast<int>(args.getInt("min-edges", 3));
    opts.maxEdges = static_cast<int>(args.getInt("max-edges", 4));
    opts.maxTests =
        static_cast<size_t>(args.getInt("max-tests", 50));
    bool scopes = !args.has("no-scopes");
    bool deps = !args.has("no-deps");
    opts.steer = args.has("steer");
    auto tests = gen::generate(gen::defaultPool(scopes, deps), opts);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::cerr << "error: cannot create '" << out_dir
                  << "': " << ec.message() << "\n";
        return 1;
    }

    size_t written = 0;
    for (const auto &g : tests) {
        std::string path =
            out_dir + "/" + cycleFileName(g.cycleName) + ".litmus";
        std::ofstream f(path);
        if (!f) {
            std::cerr << "error: cannot write '" << path << "'\n";
            return 1;
        }
        f << "(* cycle: " << g.cycleName << " *)\n";
        if (g.predictedRacyPairs >= 0)
            f << "(* predicted racy pairs: " << g.predictedRacyPairs
              << " *)\n";
        f << g.test.str();
        ++written;
        std::cout << path << "\n";
    }
    std::cerr << written << " tests written to " << out_dir << "\n";
    return 0;
}

/**
 * Discoverability in one place: registry scenarios (with their
 * parameters and defaults), the built-in paper-library corpus, any
 * on-disk .litmus corpus, the chip registry, the model registry and
 * the evaluation backends. --json emits one machine-readable object
 * so tooling never has to scrape the human listing.
 */
int
cmdList(const Args &args)
{
    std::string corpus_dir = args.get("corpus", "litmus-tests");
    std::vector<std::string> corpus_files;
    std::error_code ec;
    if (std::filesystem::is_directory(corpus_dir, ec)) {
        for (const auto &entry :
             std::filesystem::directory_iterator(corpus_dir, ec)) {
            if (entry.path().extension() == ".litmus")
                corpus_files.push_back(entry.path().string());
        }
        std::sort(corpus_files.begin(), corpus_files.end());
    }

    if (args.has("json")) {
        std::cout << "{" << serve::registryJson(corpus_files) << "}\n";
        return 0;
    }

    std::cout << "scenarios (run as scenario:<name>[,k=v...]):\n";
    for (const auto &s : scenario::all()) {
        std::cout << "  " << s.name;
        if (!s.params.empty()) {
            std::cout << "{";
            bool pfirst = true;
            for (const auto &p : s.params) {
                if (!pfirst)
                    std::cout << ",";
                pfirst = false;
                std::cout << p.name << "=" << p.defaultValue;
            }
            std::cout << "}";
        }
        std::cout << "\n      " << s.summary << " [" << s.paperRef
                  << "]\n";
        for (const auto &p : s.params)
            std::cout << "      " << p.name << ": " << p.help
                      << " (default " << p.defaultValue << ")\n";
    }

    std::cout << "\nbuilt-in paper library:\n";
    for (const auto &t : litmus::paperlib::allTests())
        std::cout << "  " << t.id << " [" << t.section << "]\n";

    if (!corpus_files.empty()) {
        std::cout << "\non-disk corpus (" << corpus_dir << "):\n";
        for (const auto &f : corpus_files)
            std::cout << "  " << f << "\n";
    }

    std::cout << "\nchips:";
    for (const auto &c : sim::allChips())
        std::cout << " " << c.shortName;
    std::cout << "\nmodels:";
    for (const auto &m : eval::builtinModelNames())
        std::cout << " " << m;
    std::cout << "\nbackends:";
    for (const auto &b : eval::builtinBackendNames())
        std::cout << " " << b;
    std::cout << "\n";
    return 0;
}

int
cmdChips()
{
    for (const auto &c : sim::allChips()) {
        std::cout << c.shortName << "\t" << c.vendor << " "
                  << c.chipName << " (" << c.arch << ", " << c.year
                  << "), SDK " << c.sdk << ", driver " << c.driver
                  << "\n";
    }
    return 0;
}

int
cmdModels()
{
    for (const auto &[name, m] : cat::models::all()) {
        std::cout << name << ": checks";
        for (const auto &c : m->checkNames())
            std::cout << " " << c;
        std::cout << "\n";
    }
    std::cout << "sorensen-operational: checks";
    for (const auto &c : model::operationalBaseline().checkNames())
        std::cout << " " << c;
    std::cout << "\n";
    return 0;
}

// ---- serve / submit / status ----------------------------------------

/**
 * The persistent validation daemon (docs/SERVE.md): listen on a Unix
 * socket and/or loopback TCP, plan requests through the same planner
 * the batch commands run in-process, answer repeats from the durable
 * result store. SIGINT/SIGTERM drain in-flight requests, flush the store and
 * exit 0 — the clean shutdown CI asserts.
 */
int
cmdServe(const Args &args)
{
    serve::ServerOptions opts;
    opts.socketPath = args.get("socket", "");
    opts.tcpPort = static_cast<int>(args.getInt("port", 0));
    opts.storeDir = args.get("store", "");
    opts.threads = static_cast<int>(args.getCount("jobs", 0));
    opts.maxStoreBytes = args.getCount("max-store-bytes", 0);
    if (opts.socketPath.empty() && opts.tcpPort == 0) {
        std::cerr << "usage: gpulitmus serve --socket PATH |"
                     " --port N [--store DIR] [--jobs N]"
                     " [--max-store-bytes N]\n";
        return 1;
    }

    std::string error;
    auto server = serve::Server::create(opts, &error);
    if (!server) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }

    struct sigaction sa{};
    sa.sa_handler = serve::Server::notifySignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-stream must error the send, not kill
    // the daemon.
    ::signal(SIGPIPE, SIG_IGN);

    std::cout << "gpulitmus serve [" << kAbiVersionString << "]:";
    if (!opts.socketPath.empty())
        std::cout << " socket " << opts.socketPath;
    if (opts.tcpPort != 0)
        std::cout << " tcp 127.0.0.1:" << opts.tcpPort;
    if (server->store())
        std::cout << ", store " << server->store()->dir() << " ("
                  << server->store()->size() << " records)";
    else
        std::cout << ", no store (results are not durable)";
    std::cout << "\n" << std::flush;

    server->run();
    std::cout << "gpulitmus serve: drained, store flushed, exiting\n";
    return 0;
}

/** Shared by submit/status: connect to --socket or --host/--port. */
std::unique_ptr<serve::Client>
connectFlag(const Args &args)
{
    std::string error;
    std::unique_ptr<serve::Client> client;
    if (args.has("socket"))
        client =
            serve::Client::connectUnix(args.get("socket", ""), &error);
    else if (args.has("port"))
        client = serve::Client::connectTcp(
            args.get("host", "127.0.0.1"),
            static_cast<int>(args.getInt("port", 0)), &error);
    else
        error = "need --socket PATH or --port N";
    if (!client)
        std::cerr << "error: " << error << "\n";
    return client;
}

/**
 * Submit one request to a running daemon and stream its events. Test
 * positionals accept everything the batch commands do — library ids,
 * scenario specs, .litmus paths (sent inline as source, so the daemon
 * never needs this machine's filesystem). The exit status is the
 * daemon's verdict: the same 0/1/2 the equivalent batch command
 * returns.
 */
int
cmdSubmit(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus submit"
                     " <sweep|validate|explore|scenario|list|stats|"
                     "shutdown> [tests...] --socket PATH|--port N"
                     " [--chips A,B] [--models A,B] [--columns 1-16]"
                     " [--column 1..16] [--iterations N] [--seed S]"
                     " [--budget N] [--exact] [--json]\n";
        return 1;
    }

    // The same flags->request translation the batch commands plan
    // in-process; only the transport differs.
    std::string error;
    std::vector<std::string> tests(args.positional.begin() + 1,
                                   args.positional.end());
    auto req = serve::requestFromFlags(args.positional[0], tests,
                                       args.flags, &error);
    if (!req) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }

    auto client = connectFlag(args);
    if (!client)
        return 1;

    bool raw = args.has("json");
    auto onEvent = [raw](const json::Value &event,
                         const std::string &line) {
        std::string kind = event.getString("event");
        if (raw) {
            // Machine consumers (the CI smoke job) get the wire
            // lines verbatim — including result cells with their
            // "from_store" markers.
            std::cout << line << "\n";
            return;
        }
        if (kind == "hello") {
            std::cerr << "daemon abi " << event.getString("abi")
                      << ", " << event.getInt("threads", 0)
                      << " threads, "
                      << event.getInt("store_records", 0)
                      << " stored records\n";
        } else if (kind == "accepted") {
            std::cerr << "accepted: " << event.getInt("jobs", 0)
                      << " jobs\n";
        } else if (kind == "progress") {
            std::cerr << "  computed " << event.getInt("done", 0)
                      << "/" << event.getInt("total", 0) << " jobs\r";
        } else if (kind == "summary") {
            std::cerr << "\n";
            std::cout << "results: " << event.getInt("results", 0)
                      << " (" << event.getInt("store_results", 0)
                      << " from store), cells "
                      << event.getInt("cells", 0) << ", sound "
                      << event.getInt("sound", 0) << ", unsound "
                      << event.getInt("unsound", 0)
                      << ", forbidden-reachable "
                      << event.getInt("forbidden_reachable", 0)
                      << ", exit " << event.getInt("exit", 0)
                      << "\n";
        } else if (kind != "result" && kind != "done") {
            std::cout << line << "\n";
        }
    };

    int exit_code = client->submit(*req, onEvent, &error);
    if (exit_code < 0) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    if (exit_code == 1 && !error.empty())
        std::cerr << "error: " << error << "\n";
    return exit_code;
}

/** One poll of the daemon: its `stats` and `metrics` events. */
bool
pollDaemon(serve::Client &client, const std::string &id,
           json::Value *stats, std::string *stats_line,
           json::Value *metrics, std::string *metrics_line,
           std::string *error)
{
    serve::Request req;
    req.id = id;
    req.cmd = "stats";
    int rc = client.submit(
        req,
        [&](const json::Value &event, const std::string &line) {
            if (event.getString("event") == "stats") {
                *stats = event;
                *stats_line = line;
            }
        },
        error);
    if (rc != 0)
        return false;
    req.cmd = "metrics";
    rc = client.submit(
        req,
        [&](const json::Value &event, const std::string &line) {
            if (event.getString("event") == "metrics") {
                *metrics = event;
                *metrics_line = line;
            }
        },
        error);
    return rc == 0;
}

/** The --watch table: daemon/store counters and the engine/explorer
 * telemetry that shows a long request is alive. */
void
printStatusTable(const json::Value &stats,
                 const json::Value &metrics)
{
    auto metric = [&metrics](const char *name) -> int64_t {
        const json::Value *m = metrics.find("metrics");
        return m ? m->getInt(name, 0) : 0;
    };
    auto timerField = [&metrics](const char *name,
                                 const char *field) -> int64_t {
        const json::Value *m = metrics.find("metrics");
        const json::Value *t = m ? m->find(name) : nullptr;
        return t ? t->getInt(field, 0) : 0;
    };

    std::cout << "daemon:   " << stats.getInt("connections", 0)
              << " connections ("
              << metric("serve_clients_connected") << " live), "
              << stats.getInt("requests", 0) << " requests, "
              << stats.getInt("jobs", 0) << " jobs planned, "
              << stats.getInt("replayed_requests", 0)
              << " journal replays\n";
    std::cout << "store:    " << stats.getInt("store_records", 0)
              << " records, " << stats.getInt("store_hits", 0)
              << " hits, " << stats.getInt("store_misses", 0)
              << " misses, " << metric("store_appends_total")
              << " appends\n";
    std::cout << "engine:   " << metric("engine_jobs_total")
              << " jobs (" << metric("engine_jobs_cached_total")
              << " cache, " << metric("engine_jobs_from_store_total")
              << " store), L1 hits "
              << stats.getInt("engine_cache_hits", 0)
              << ", mean latency "
              << (timerField("engine_job_latency_us", "count")
                      ? timerField("engine_job_latency_us",
                                   "mean_us")
                      : 0)
              << " us\n";
    std::cout << "explorer: " << metric("mc_explorations_total")
              << " explorations (" << metric("mc_bounded_total")
              << " bounded), " << metric("mc_replays_total")
              << " replays, " << metric("mc_states_cached_total")
              << " states, " << metric("mc_sleep_skips_total")
              << " sleep skips, peak depth "
              << metric("mc_last_peak_depth") << "\n";
    std::cout.flush();
}

/** Daemon/store counters plus the telemetry registry (`stats` +
 * `metrics` requests). --watch N polls and redraws; --json prints
 * the raw event lines for scripting. */
int
cmdStatus(const Args &args)
{
    auto client = connectFlag(args);
    if (!client)
        return 1;
    bool raw = args.has("json");
    // A bare --watch polls every 2 s.
    int watch = 0;
    if (args.has("watch"))
        watch = args.get("watch", "") == "true"
                    ? 2
                    : static_cast<int>(args.getInt("watch", 2));
    if (watch < 0)
        watch = 0;

    for (;;) {
        json::Value stats, metrics;
        std::string stats_line, metrics_line, error;
        if (!pollDaemon(*client, args.get("id", "cli"), &stats,
                        &stats_line, &metrics, &metrics_line,
                        &error)) {
            std::cerr << "error: "
                      << (error.empty() ? "status request failed"
                                        : error)
                      << "\n";
            return 1;
        }
        if (raw) {
            std::cout << stats_line << "\n"
                      << metrics_line << "\n";
        } else {
            if (watch > 0 && isatty(1))
                std::cout << "\033[2J\033[H"; // clear + home
            printStatusTable(stats, metrics);
        }
        if (watch <= 0)
            break;
        std::this_thread::sleep_for(std::chrono::seconds(watch));
    }
    return 0;
}

int
dispatch(const std::string &cmd, const Args &args)
{
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "check")
        return cmdCheck(args);
    if (cmd == "validate")
        return cmdValidate(args);
    if (cmd == "explore")
        return cmdExplore(args);
    if (cmd == "list")
        return cmdList(args);
    if (cmd == "show")
        return cmdShow(args);
    if (cmd == "lint")
        return cmdLint(args);
    if (cmd == "sass")
        return cmdSass(args);
    if (cmd == "generate")
        return cmdGenerate(args);
    if (cmd == "gen")
        return cmdGen(args);
    if (cmd == "chips")
        return cmdChips();
    if (cmd == "models")
        return cmdModels();
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "submit")
        return cmdSubmit(args);
    if (cmd == "status")
        return cmdStatus(args);
    std::cerr << "unknown command '" << cmd << "'\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr
            << "usage: gpulitmus"
               " <run|sweep|check|validate|explore|list|show|lint|"
               "sass|generate|gen|chips|models|serve|submit|status>"
               " ...\n";
        return 1;
    }
    std::string cmd = argv[1];
    Args args = parseArgs(argc, argv, 2);

    // --trace FILE: collect spans for the whole invocation and write
    // Chrome trace-event JSON on the way out (docs/OBSERVABILITY.md).
    std::string trace_path;
    if (args.has("trace")) {
        trace_path = args.get("trace", "trace.json");
        if (trace_path == "true") // bare --trace with no value
            trace_path = "trace.json";
        obs::Trace::start();
    }

    int exit_code = dispatch(cmd, args);

    if (!trace_path.empty()) {
        std::string error;
        if (obs::Trace::writeFile(trace_path, &error))
            std::cerr << "trace: wrote " << trace_path << " ("
                      << "open in https://ui.perfetto.dev)\n";
        else
            std::cerr << "trace: " << error << "\n";
    }
    return exit_code;
}
