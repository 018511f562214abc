/**
 * @file
 * Checkpointed exploration vs PR-3 replay-from-root, head to head.
 *
 * For each explorer workload this bench runs the same exploration
 * twice inside one binary:
 *
 * - "before": the PR-3 configuration — string state keys
 *   (ExploreOptions::debugStateKeys) and every replay re-executed
 *   from instruction zero (checkpoints off);
 * - "after": the PR-4 hot path — 128-bit digest keys and snapshot
 *   resume from the deepest checkpoint on the DFS spine.
 *
 * The two modes must be *observationally identical*: same reachable
 * sets, same pruned replay counts, same pruning statistics — only
 * wall clock and per-replay work may differ. This bench enforces
 * that invariance (exit 1 on any drift), pins the anchor (inter-CTA
 * mp on the Titan at column 16 is exactly 1,296 pruned replays under
 * eager issue), and emits BENCH_snapshot.json with
 * before/after replays-per-second per workload.
 *
 * GPULITMUS_SNAPSHOT_REPS controls the best-of repetition count
 * (default 3). Exits nonzero if BENCH_snapshot.json cannot be
 * written, so CI artifact upload cannot silently miss it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/strutil.h"
#include "common/table.h"
#include "litmus/library.h"
#include "mc/explorer.h"

#include "bench_util.h"

using namespace gpulitmus;

namespace {

double
explore(const litmus::Test &test, const sim::ChipProfile &chip,
        int column, bool modern, mc::ExploreResult *out)
{
    mc::ExploreOptions opts;
    opts.machine.inc = sim::Incantations::fromColumn(column);
    opts.checkpoints = modern;
    opts.debugStateKeys = !modern; // PR-3 string keys when legacy
    mc::Explorer explorer(chip, test, opts);
    auto start = std::chrono::steady_clock::now();
    *out = explorer.explore();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

} // namespace

int
main()
{
    const int reps =
        static_cast<int>(benchutil::envOr("GPULITMUS_SNAPSHOT_REPS", 3));
    const sim::ChipProfile &chip = sim::chip("Titan");
    const int column = 16;

    struct Workload
    {
        const char *name;
        litmus::Test test;
        /** Pruned-replay anchor; 0 = unpinned. */
        uint64_t expectReplays;
    };
    const Workload workloads[] = {
        {"mp", litmus::paperlib::mp(), 1296},
        {"sb", litmus::paperlib::sb(), 0},
        {"corr", litmus::paperlib::coRRL2L1(ptx::Scope::Gl), 0},
        {"lb", litmus::paperlib::lb(), 0},
    };

    std::cout << "checkpointed exploration vs PR-3 replay-from-root"
              << " (Titan, column " << column << ", best of " << reps
              << ")\n\n";

    Table table;
    table.header({"test", "replays", "before ms", "after ms",
                  "before r/s", "after r/s", "speedup"});
    std::vector<std::string> entries;
    bool ok = true;

    for (const auto &w : workloads) {
        mc::ExploreResult before, after;
        double before_ms = 1e300, after_ms = 1e300;
        for (int r = 0; r < reps; ++r) {
            before_ms = std::min(
                before_ms, explore(w.test, chip, column, false,
                                   &before));
            after_ms = std::min(
                after_ms,
                explore(w.test, chip, column, true, &after));
        }

        // Invariance: checkpointing and digest keys are pure
        // wall-clock machinery. Any drift in the traversal or the
        // reachable set is a bug, not a regression to report.
        if (before.finals != after.finals ||
            before.satisfying != after.satisfying ||
            before.complete != after.complete ||
            before.stats.replays != after.stats.replays ||
            before.stats.stateCuts != after.stats.stateCuts ||
            before.stats.sleepSkips != after.stats.sleepSkips ||
            before.stats.peakDepth != after.stats.peakDepth) {
            std::cerr << "INVARIANCE VIOLATION: " << w.name
                      << " explores differently with checkpointing"
                         " on vs off\n";
            ok = false;
        }
        if (w.expectReplays != 0 &&
            after.stats.replays != w.expectReplays) {
            std::cerr << "PRUNED-REPLAY DRIFT: " << w.name
                      << " expected " << w.expectReplays
                      << " replays, got " << after.stats.replays
                      << "\n";
            ok = false;
        }

        double rps_before =
            before_ms > 0.0
                ? static_cast<double>(before.stats.replays) * 1000.0 /
                      before_ms
                : 0.0;
        double rps_after =
            after_ms > 0.0
                ? static_cast<double>(after.stats.replays) * 1000.0 /
                      after_ms
                : 0.0;
        double speedup =
            after_ms > 0.0 ? before_ms / after_ms : 0.0;

        char bms[32], ams[32], brps[32], arps[32], sp[32];
        std::snprintf(bms, sizeof bms, "%.2f", before_ms);
        std::snprintf(ams, sizeof ams, "%.2f", after_ms);
        std::snprintf(brps, sizeof brps, "%.0f", rps_before);
        std::snprintf(arps, sizeof arps, "%.0f", rps_after);
        std::snprintf(sp, sizeof sp, "%.2fx", speedup);
        table.row({w.name, std::to_string(after.stats.replays), bms,
                   ams, brps, arps, sp});

        std::string e = "{";
        e += "\"test\":\"" + jsonEscape(w.name) + "\",";
        e += "\"chip\":\"Titan\",";
        e += "\"column\":" + std::to_string(column) + ",";
        e += "\"replays\":" +
             std::to_string(after.stats.replays) + ",";
        e += "\"states\":" +
             std::to_string(after.stats.distinctStates) + ",";
        e += "\"reachable_states\":" +
             std::to_string(after.finals.size()) + ",";
        e += "\"complete\":" +
             std::string(after.complete ? "true" : "false") + ",";
        e += "\"before_ms\":" + std::string(bms) + ",";
        e += "\"after_ms\":" + std::string(ams) + ",";
        e += "\"replays_per_sec_before\":" + std::string(brps) + ",";
        e += "\"replays_per_sec_after\":" + std::string(arps) + ",";
        e += "\"resumes\":" + std::to_string(after.stats.resumes) +
             ",";
        e += "\"replayed_choices_before\":" +
             std::to_string(before.stats.replayedChoices) + ",";
        e += "\"replayed_choices_after\":" +
             std::to_string(after.stats.replayedChoices) + ",";
        e += "\"speedup\":" + std::to_string(speedup);
        e += "}";
        entries.push_back(std::move(e));
    }
    table.print(std::cout);

    if (!ok)
        return 1;

    if (!writeJsonArrayFile("BENCH_snapshot.json", entries)) {
        std::cerr << "error: could not write BENCH_snapshot.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_snapshot.json (" << entries.size()
              << " workloads)\n";
    return 0;
}
