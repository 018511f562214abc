/**
 * @file
 * Shared plumbing for the benchmark binaries that regenerate the
 * paper's tables and figures.
 *
 * Each grid is a serve::Request planned by serve::planJobs, the
 * planner the CLI and the daemon use, so every cell can be reproduced
 * with `gpulitmus sweep`. Iteration counts come from GPULITMUS_ITERS
 * (default 100000, the paper's count); observations are normalised to
 * obs/100k. The cells the paper reports live in paper_ledger.h, which
 * bench_paper renders.
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

/** Request tests: a paper-library id and a test built in code (sent
 * as its printed text, a print -> parse -> print fixed point, so its
 * keys and seeds are the test's own). */
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

/**
 * A request over `tests` on `chips` (short names; empty: the
 * command's default) at the harness base seed (harness::kBaseSeed,
 * not the CLI's --seed default), so every cell equals harness::runJob
 * of a default Job on the same chip, test and column. Sweeps default
 * to column 16, the column the figures report.
 */
inline serve::Request
request(const std::string &cmd, std::vector<serve::TestSpec> tests,
        std::vector<std::string> chips, std::vector<int> columns = {16},
        uint64_t iterations = harness::defaultIterations())
{
    serve::Request req;
    req.cmd = cmd;
    req.tests = std::move(tests);
    req.chips = std::move(chips);
    req.columns = std::move(columns);
    req.iterations = iterations;
    req.seed = harness::kBaseSeed;
    return req;
}

/** Plan `req` with serve::planJobs and run the plan on the shared
 * engine. A planner error ends the binary: the message goes to stderr
 * and the exit status is 1. */
inline std::vector<eval::EvalResult>
run(const serve::Request &req, serve::Plan &plan,
    eval::ProgressFn progress = nullptr)
{
    std::string error;
    if (!serve::planJobs(req, &plan, &error)) {
        std::cerr << "error: " << error << "\n";
        std::exit(1);
    }
    return engine().run(plan.jobs, std::move(progress));
}

} // namespace gpulitmus::benchutil

#endif // GPULITMUS_BENCHUTIL_H
