/**
 * @file
 * The explorer pre-pass, measured: static analysis + SC enumeration
 * vs full weak-memory exploration, and proof that the substitution is
 * observationally invisible.
 *
 * For every workload this bench runs the mc backend twice inside one
 * binary:
 *
 * - "pre-pass": the default path — analysis/race.h classifies the
 *   program, and when it is fully ordered the SC enumeration
 *   (analysis/sc.h) is the answer, no explorer replay spent;
 * - "explore": GPULITMUS_MC_NO_PREPASS=1 — the full
 *   exploration, exactly what every result looked like before the
 *   pre-pass existed.
 *
 * For fully-ordered workloads the two result cells must be
 * *byte-identical after normalisation*: the normalised cell keeps
 * every semantic field (test, chip, column, completeness, verdict,
 * the reachable keys, the satisfying keys) and drops only the
 * search-shaped ones (path weights, replay/cut statistics, budgets,
 * wall clock), which is the same normalisation the result cache
 * relies on when it ignores the kill-switch knob. Any normalised
 * drift exits 1. Racy workloads measure the other side of the
 * bargain: the analyzer's overhead when it must stand aside.
 *
 * Emits BENCH_analysis.json with per-workload verdicts, timings and
 * the pre-pass speedup. GPULITMUS_ANALYSIS_REPS controls the best-of
 * repetition count (default 3).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/race.h"
#include "common/strutil.h"
#include "common/table.h"
#include "eval/backend.h"
#include "litmus/library.h"
#include "sim/chip.h"

#include "bench_util.h"

using namespace gpulitmus;

namespace {

/** The semantic content of an exact result cell, rendered stably:
 * everything `explore --json` reports except the fields the pre-pass
 * is allowed to change (weights, search statistics, budgets, wall
 * clock). Two cells with equal strings are interchangeable to every
 * consumer of the reachable set and verdict. */
std::string
normalisedCell(const mc::ExploreResult &r, const litmus::Test &test)
{
    std::string out = "{";
    out += "\"test\":\"" + jsonEscape(r.testName) + "\",";
    out += "\"chip\":\"" + jsonEscape(r.chipName) + "\",";
    out += "\"column\":" + std::to_string(r.column) + ",";
    out += "\"complete\":" +
           std::string(r.complete ? "true" : "false") + ",";
    out += "\"verdict\":\"" + jsonEscape(r.verdict(test)) + "\",";
    out += "\"reachable\":[";
    bool first = true;
    for (const auto &[key, weight] : r.finals) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(key) + "\"";
    }
    out += "],\"satisfying\":[";
    first = true;
    for (const auto &key : r.satisfying) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(key) + "\"";
    }
    out += "]}";
    return out;
}

double
evaluateMs(const eval::McBackend &backend, const harness::Job &job,
           int reps, mc::ExploreResult *out)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        eval::EvalResult res = backend.evaluate(job);
        auto end = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(end - start)
                      .count());
        *out = *res.exact;
    }
    return best;
}

} // namespace

int
main()
{
    const int reps = static_cast<int>(
        benchutil::envOr("GPULITMUS_ANALYSIS_REPS", 3));
    const int column = 16;

    struct Workload
    {
        const char *name;
        litmus::Test test;
        /** The analyzer verdict this workload exists to exercise. */
        bool expectFullyOrdered;
    };
    const Workload workloads[] = {
        // The fenced paper tests: every communication fully ordered,
        // so the pre-pass answers them without exploring.
        {"mp+membar.gl", litmus::paperlib::mpMembarGls(), true},
        {"mp+fence.gl", litmus::paperlib::mp(ptx::Scope::Gl), true},
        {"sb+fence.gl", litmus::paperlib::sb(ptx::Scope::Gl), true},
        // The racy side: the analyzer must stand aside (mp), even
        // when fences are present but under-scoped (lb+membar.cta
        // across CTAs — the Sec. 6 red-flag configuration).
        {"mp", litmus::paperlib::mp(), false},
        {"lb+membar.cta", litmus::paperlib::lbMembarCtas(), false},
    };

    std::cout << "static pre-pass vs full exploration (Titan, column "
              << column << ", best of " << reps << ")\n\n";

    Table table;
    table.header({"test", "verdict", "lint ms", "prepass ms",
                  "explore ms", "replays", "speedup", "cells"});
    std::vector<std::string> entries;
    bool ok = true;

    for (const auto &w : workloads) {
        auto lintStart = std::chrono::steady_clock::now();
        analysis::Report rep = analysis::analyze(w.test);
        auto lintEnd = std::chrono::steady_clock::now();
        double lint_ms =
            std::chrono::duration<double, std::milli>(lintEnd -
                                                      lintStart)
                .count();
        if (rep.fullyOrdered != w.expectFullyOrdered) {
            std::cerr << "VERDICT DRIFT: " << w.name << " expected "
                      << (w.expectFullyOrdered ? "fully-ordered"
                                               : "racy")
                      << ", analyzer says "
                      << (rep.fullyOrdered ? "fully-ordered" : "racy")
                      << "\n";
            ok = false;
        }

        harness::Job job;
        job.backend = harness::kMcBackend;
        job.chip = sim::chip("Titan");
        job.test = w.test;
        job.inc = sim::Incantations::fromColumn(column);
        eval::McBackend backend;

        ::unsetenv("GPULITMUS_MC_NO_PREPASS");
        mc::ExploreResult pre;
        double pre_ms = evaluateMs(backend, job, reps, &pre);
        ::setenv("GPULITMUS_MC_NO_PREPASS", "1", 1);
        mc::ExploreResult full;
        double full_ms = evaluateMs(backend, job, reps, &full);
        ::unsetenv("GPULITMUS_MC_NO_PREPASS");

        std::string preCell = normalisedCell(pre, w.test);
        std::string fullCell = normalisedCell(full, w.test);
        bool cellsIdentical = preCell == fullCell;
        if (!cellsIdentical) {
            std::cerr << "CELL DRIFT: " << w.name
                      << " pre-pass and exploration disagree after"
                         " normalisation\n  pre:  "
                      << preCell << "\n  full: " << fullCell << "\n";
            ok = false;
        }
        if (rep.fullyOrdered && pre.stats.replays != 0) {
            std::cerr << "PRE-PASS MISS: " << w.name
                      << " is fully ordered but still explored ("
                      << pre.stats.replays << " replays)\n";
            ok = false;
        }

        double speedup = pre_ms > 0.0 ? full_ms / pre_ms : 0.0;
        char lms[32], pms[32], fms[32], sp[32];
        std::snprintf(lms, sizeof lms, "%.3f", lint_ms);
        std::snprintf(pms, sizeof pms, "%.2f", pre_ms);
        std::snprintf(fms, sizeof fms, "%.2f", full_ms);
        std::snprintf(sp, sizeof sp, "%.2fx", speedup);
        table.row({w.name,
                   rep.fullyOrdered ? "fully-ordered" : "racy", lms,
                   pms, fms, std::to_string(full.stats.replays), sp,
                   cellsIdentical ? "identical" : "DRIFT"});

        std::string e = "{";
        e += "\"test\":\"" + jsonEscape(w.name) + "\",";
        e += "\"chip\":\"Titan\",";
        e += "\"column\":" + std::to_string(column) + ",";
        e += "\"fully_ordered\":" +
             std::string(rep.fullyOrdered ? "true" : "false") + ",";
        e += "\"racy_pairs\":" + std::to_string(rep.racyPairs()) +
             ",";
        e += "\"lint_ms\":" + std::string(lms) + ",";
        e += "\"prepass_ms\":" + std::string(pms) + ",";
        e += "\"explore_ms\":" + std::string(fms) + ",";
        e += "\"explore_replays\":" +
             std::to_string(full.stats.replays) + ",";
        e += "\"prepass_replays\":" +
             std::to_string(pre.stats.replays) + ",";
        e += "\"reachable_states\":" +
             std::to_string(pre.finals.size()) + ",";
        e += "\"cells_identical\":" +
             std::string(cellsIdentical ? "true" : "false") + ",";
        e += "\"speedup\":" + std::to_string(speedup);
        e += "}";
        entries.push_back(std::move(e));
    }
    table.print(std::cout);

    if (!ok)
        return 1;

    if (!writeJsonArrayFile("BENCH_analysis.json", entries)) {
        std::cerr << "error: could not write BENCH_analysis.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_analysis.json (" << entries.size()
              << " workloads)\n";
    return 0;
}
