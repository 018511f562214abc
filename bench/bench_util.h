/**
 * @file
 * Shared plumbing for the benchmark binaries that regenerate the
 * paper's tables and figures.
 *
 * Every binary prints (a) the simulated observation counts, and (b)
 * the paper's published numbers for the same cell, so the shape can
 * be compared at a glance. Each grid is a serve::Request planned by
 * serve::planJobs, the planner the CLI and the daemon use, so every
 * cell can be reproduced with `gpulitmus sweep`. Iteration counts come
 * from GPULITMUS_ITERS (default 100000, the paper's count);
 * observations are normalised to obs/100k.
 */

#ifndef GPULITMUS_BENCHUTIL_H
#define GPULITMUS_BENCHUTIL_H

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "common/table.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/test.h"
#include "serve/protocol.h"
#include "sim/chip.h"

namespace gpulitmus::benchutil {

/** Positive-integer environment override with a fallback (the
 * validation bench's size knobs; iteration counts come from
 * harness::defaultIterations). */
inline uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    auto parsed = parseInt(v);
    return parsed && *parsed > 0 ? static_cast<uint64_t>(*parsed)
                                 : fallback;
}

/**
 * The shared engine for this binary: worker count from GPULITMUS_JOBS
 * (default: hardware concurrency), results cached across requests so
 * a cell queried by two tables is simulated once.
 */
inline eval::Engine &
engine()
{
    static eval::Engine e;
    return e;
}

/** The five Nvidia chips of the paper's per-test rows. */
inline std::vector<sim::ChipProfile>
nvidiaChips()
{
    std::vector<sim::ChipProfile> out;
    for (const auto &c : sim::resultChips()) {
        if (c.isNvidia())
            out.push_back(c);
    }
    return out;
}

/** All seven result chips (Nvidia + AMD). */
inline std::vector<sim::ChipProfile>
allResultChips()
{
    return sim::resultChips();
}

inline void
printHeader(const std::string &title, const std::string &what)
{
    std::cout << "=====================================================\n"
              << title << "\n"
              << what << "\n"
              << "iterations/run: " << harness::defaultIterations()
              << " (set GPULITMUS_ITERS to change); all counts are"
                 " normalised to obs/100k\n"
              << "=====================================================\n";
}

/** Request tests: a paper-library id, a test built in code (sent as
 * its printed text, a print -> parse -> print fixed point, so its keys
 * and seeds are the test's own) and a registry scenario spec. */
inline serve::TestSpec
libraryTest(const std::string &id)
{
    return {id, "", ""};
}

inline serve::TestSpec
inCodeTest(const litmus::Test &test)
{
    return {"", test.str(), ""};
}

inline serve::TestSpec
scenarioTest(const std::string &spec)
{
    return {"", "", spec};
}

/**
 * A request over `tests` and `chips` at the bench iteration count and
 * the harness base seed (harness::kBaseSeed, not the CLI's --seed
 * default), so every cell equals harness::runJob of a default Job on
 * the same chip, test and column. Sweeps default to column 16, the
 * column the figures report.
 */
inline serve::Request
request(const std::string &cmd, std::vector<serve::TestSpec> tests,
        const std::vector<sim::ChipProfile> &chips,
        std::vector<int> columns = {16})
{
    serve::Request req;
    req.cmd = cmd;
    req.tests = std::move(tests);
    for (const auto &c : chips)
        req.chips.push_back(c.shortName);
    req.columns = std::move(columns);
    req.iterations = harness::defaultIterations();
    req.seed = harness::kBaseSeed;
    return req;
}

/** Plan `req` with serve::planJobs and run the plan on the shared
 * engine. A planner error ends the binary: the message goes to stderr
 * and the exit status is 1. */
inline std::vector<eval::EvalResult>
run(const serve::Request &req, serve::Plan &plan,
    const std::vector<eval::EvalSink *> &sinks = {},
    eval::ProgressFn progress = nullptr)
{
    std::string error;
    if (!serve::planJobs(req, &plan, &error)) {
        std::cerr << "error: " << error << "\n";
        std::exit(1);
    }
    return engine().run(plan.jobs, sinks, std::move(progress));
}

/**
 * Append measured and paper rows for one test: a sweep of `test` over
 * `chips` at column 16, one batch on the shared engine. AMD chips run
 * what their OpenCL compiler emits; a cell the planner skips as
 * miscompiled prints as "n/a". Returns the plan, whose notes carry the
 * compile quirks.
 */
inline serve::Plan
sweepRows(Table &table, const std::string &label,
          const serve::TestSpec &test,
          const std::vector<sim::ChipProfile> &chips,
          const std::vector<std::string> &paper)
{
    serve::Plan plan;
    auto results = run(request("sweep", {test}, chips), plan);
    std::vector<std::string> measured{label + " (sim)"};
    size_t next = 0;
    for (const auto &chip : chips) {
        if (next < results.size() &&
            results[next].job->chip.shortName == chip.shortName)
            measured.push_back(
                std::to_string(results[next++].observedPer100k));
        else
            measured.push_back("n/a");
    }
    table.row(measured);
    std::vector<std::string> reference{label + " (paper)"};
    for (const auto &p : paper)
        reference.push_back(p);
    table.row(reference);
    return plan;
}

/** Print the compile quirks `plan` noted for `chip`. */
inline void
printCompileNotes(const serve::Plan &plan, const std::string &chip)
{
    const std::string prefix = "compile note (" + chip + "): ";
    std::cout << "\n" << chip << " compile notes:\n";
    for (const auto &note : plan.notes) {
        if (note.rfind(prefix, 0) == 0)
            std::cout << "  " << note.substr(prefix.size()) << "\n";
    }
}

inline std::vector<std::string>
chipHeader(const std::string &first,
           const std::vector<sim::ChipProfile> &chips)
{
    std::vector<std::string> h{first};
    for (const auto &c : chips)
        h.push_back(c.shortName);
    return h;
}

} // namespace gpulitmus::benchutil

#endif // GPULITMUS_BENCHUTIL_H
