/**
 * @file
 * The `gpulitmus serve` wire protocol: line-delimited JSON requests
 * and events, plus the shared request -> job planner.
 *
 * One request is one JSON object on one line; the daemon answers with
 * a stream of JSON event lines for that request and is ready for the
 * next line when the terminal `done` (or `error`) event has been
 * written. Full request/event schemas are documented in docs/SERVE.md;
 * the short form:
 *
 *   request: {"cmd":"validate","id":"r1","tests":[{"name":"mp"}],
 *             "chips":["Titan"],"models":["ptx"],"column":16,...}
 *   events:  {"event":"accepted","id":"r1","jobs":3}
 *            {"event":"progress","id":"r1","done":1,"total":2,...}
 *            {"event":"result","id":"r1",...}        (one per job)
 *            {"event":"summary","id":"r1","exit":0,...}
 *            {"event":"done","id":"r1"}
 *
 * The planner (planJobs) is the one place a test grid is built —
 * per-chip compilation (an AMD chip runs what its simulated OpenCL
 * compiler emits, opt::amdCompile), model-scope policy via
 * model::inModelScope, the defaults (chips, models, seeds, budgets).
 * The batch `gpulitmus run/sweep/validate/explore` commands are its
 * in-process clients (`run` is a one-cell sweep): they turn their
 * flags into a Request
 * (requestFromFlags), plan it here, run the plan on eval::Engine and
 * take their exit status from summarize() — exactly what the daemon
 * does with a request line. A request submitted over the socket
 * therefore evaluates bit-identically to the equivalent batch
 * invocation by construction; only the transport differs.
 */

#ifndef GPULITMUS_SERVE_PROTOCOL_H
#define GPULITMUS_SERVE_PROTOCOL_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eval/backend.h"
#include "harness/campaign.h"

namespace gpulitmus::serve {

/** One test reference inside a request: exactly one of the fields is
 * set — a built-in paper-library id, raw .litmus source, or a
 * registry-scenario spec ("scenario:<name>[,k=v...]"). */
struct TestSpec
{
    std::string name;   ///< paper-library id (e.g. "mp", "coRR")
    std::string source; ///< inline .litmus text
    std::string spec;   ///< scenario spec
};

/** A parsed request line. Defaults mirror the batch CLI flags. */
struct Request
{
    /** hello | list | stats | metrics | sweep | validate | explore |
     * scenario | shutdown. "scenario" is explore with scenario-spec
     * tests — the whole-application entry point; "metrics" returns
     * the telemetry registry (obs/metrics.h) as JSON plus Prometheus
     * text exposition. */
    std::string cmd;
    /** Client-chosen correlation id, echoed in every event. */
    std::string id;

    std::vector<TestSpec> tests;
    /** Chip short names; "all" expands the registry. Empty: the
     * per-command default (sweep/explore: Titan; validate: the
     * Nvidia result chips). */
    std::vector<std::string> chips;
    /** Model backend ids; "none" disables the join. Empty: ptx. */
    std::vector<std::string> models;

    /** Incantation columns (sweep). Empty: 1..16. */
    std::vector<int> columns;
    /** Incantation column (validate/explore/scenario). */
    int column = 16;
    /** Iterations per sim cell, used as given (0 plans zero-iteration
     * cells). On the wire an absent or 0 "iterations" means
     * harness::defaultIterations(); parseRequest resolves it. */
    uint64_t iterations = 100000;
    /** Base seed — the batch CLI's --seed default. */
    uint64_t seed = 0x6c69;
    /** Exploration replay budget (mc cells). */
    uint64_t budget = 1 << 20;
    /** validate only: add one exhaustive exploration per sim cell. */
    bool exact = false;
};

/** Parse one request line. nullopt + `error` on malformed JSON, a
 * missing/unknown cmd, bad field types, or a negative "iterations" or
 * "budget". */
std::optional<Request> parseRequest(const std::string &line,
                                    std::string *error);

/**
 * The request a command line stands for: `cmd`, its test arguments
 * (paper-library ids, scenario specs, .litmus paths — a file's text
 * travels inline as source, so a daemon never needs this machine's
 * filesystem) and its `--flag value` pairs: chips, models, columns,
 * column, iterations, seed, budget, exact, id. Absent flags take the
 * batch defaults; --iterations defaults to
 * harness::defaultIterations(). The batch commands plan this request
 * in-process, `submit` sends it. nullopt + `error` on an unreadable
 * test file, a malformed integer, a negative count, or a bad column.
 */
std::optional<Request>
requestFromFlags(const std::string &cmd,
                 const std::vector<std::string> &tests,
                 const std::map<std::string, std::string> &flags,
                 std::string *error);

/** The integer value of `--name` in `flags`, `fallback` when absent.
 * A malformed value — or, for a `count`, a negative one (it would wrap
 * to a huge unsigned count) — is nullopt + `error`, never a silent
 * fallback. */
std::optional<int64_t>
intFlag(const std::map<std::string, std::string> &flags,
        const std::string &name, int64_t fallback, bool count,
        std::string *error);

/** Parse a --columns spec: "1-16", "9", or "1,5,9". Empty when
 * malformed or outside 1..16. */
std::vector<int> parseColumns(const std::string &spec);

/** One command-line test argument as a TestSpec: a scenario spec, a
 * readable file (its text inline), or a paper-library id. nullopt +
 * `error` for a path (contains '/' or ends in .litmus) that cannot be
 * opened. */
std::optional<TestSpec> testSpecFor(const std::string &arg,
                                    std::string *error);

/** A resolved test plus the micro-step floor its source recommends
 * (registry scenarios with spin loops need more than the default). */
struct LoadedTest
{
    litmus::Test test;
    int minMicroSteps = 0;
};

/** Resolve one TestSpec — library id, inline source or scenario spec
 * — without ever being fatal (the daemon survives bad requests). */
std::optional<LoadedTest> resolveTest(const TestSpec &spec,
                                      std::string *error);

/** Render a Request back to its wire line (no trailing newline); the
 * client side of parseRequest. */
std::string renderRequest(const Request &req);

/** The job list a request plans to, plus everything the planner had
 * to say about it. */
struct Plan
{
    std::vector<harness::Job> jobs;
    /** (test, chip) cells dropped as miscompiled ("<test> on <chip>"). */
    std::vector<std::string> skipped;
    /** Compile quirks and scope notes, human-readable. */
    std::vector<std::string> notes;
    /** Tests excluded from the model join (out of model scope). */
    size_t outOfScope = 0;
    /** The resolved chip short names and model ids the grid spans. */
    std::vector<std::string> chips;
    std::vector<std::string> models;
};

/**
 * Expand a job-carrying request (sweep/validate/explore/scenario)
 * into its job list. False + `error` on unresolvable tests/chips/
 * models or an empty plan (every cell miscompiled / nothing in
 * scope).
 *
 * Each TestSpec is resolved once per process: a memo keyed on the
 * spec (library id, scenario spec or inline source text) keeps the
 * loaded test, its rendering, its model scope and each AMD chip's
 * compilation, so a repeated request re-plans without parsing,
 * rendering or compiling, and each planned job copies its test once.
 * Failures are not memoised. Safe to call from several threads.
 */
bool planJobs(const Request &req, Plan *plan, std::string *error);

/** Caps of planJobs' memo of resolved tests: entries, and bytes of
 * keys (an inline source is its own key, and a request line may carry
 * up to a MiB of them). A key over the byte cap is never memoised; an
 * insert that would pass either cap empties the memo first. */
inline constexpr size_t kTestMemoMaxEntries = 128;
inline constexpr size_t kTestMemoMaxKeyBytes = size_t{1} << 20;

/** What planJobs' memo holds right now. */
struct TestMemoStats
{
    size_t entries = 0;
    size_t keyBytes = 0;
};
TestMemoStats testMemoStats();

/**
 * What a finished job-carrying request amounts to: the exit status
 * (0, or 2 for a failed check — an observed ~exists condition in a
 * sweep, an unsound or inconsistent validate cell, an unsound or
 * forbidden-reachable explore cell) and the tallies the daemon's
 * `summary` event reports. The batch commands take their exit status
 * from the same function, so `submit` and the batch command cannot
 * disagree.
 */
struct Outcome
{
    int exit = 0;
    size_t results = 0;   ///< results delivered
    size_t fromStore = 0; ///< ... of which the result store answered
    /** Conformance-join cells and their classification counts. */
    size_t cells = 0, sound = 0, unsound = 0, imprecise = 0, rare = 0,
           unreachable = 0, inconsistent = 0;
    /** Distinct explorations that hit their budget. */
    size_t bounded = 0;
    /** Distinct explorations of ~exists tests reaching the forbidden
     * condition. */
    size_t forbiddenReachable = 0;
};

/** Tally `results` (delivered in job order for `req`) and the
 * conformance join over them. Repeated cells (same cache identity)
 * count once. */
Outcome summarize(const Request &req,
                  const std::vector<eval::EvalResult> &results,
                  const eval::ConformanceSink &conformance);

/** JSON string field helper shared by the server/client event code:
 * `"key":"escaped"`. */
std::string jsonField(const std::string &key, const std::string &value);

/** A JSON array of escaped strings. */
std::string jsonStringArray(const std::vector<std::string> &values);

/**
 * The registry as JSON object members (no braces): the ABI stamp
 * first — it decides whether a store or daemon built by another binary
 * is compatible — then the scenarios with their parameters, the paper
 * library, `corpus` (on-disk .litmus paths), chips, models and
 * backends. `gpulitmus list --json` prints it; the daemon's `list`
 * event carries it (with an empty corpus).
 */
std::string registryJson(const std::vector<std::string> &corpus);

} // namespace gpulitmus::serve

#endif // GPULITMUS_SERVE_PROTOCOL_H
