/**
 * @file
 * Exhaustive exploration vs sampling, head to head: for each corpus
 * idiom on the GTX Titan, one exact mc exploration against the
 * paper's 100k-iteration sampling sweep — wall-clock, work done, and
 * what each method can actually conclude. Emits BENCH_mc.json.
 *
 * The point the numbers make: an exploration that *proves* the
 * reachable set (thousands of replays, tens of ms) costs a fraction
 * of one 100k sweep that can only sample it — the "one exact
 * exploration instead of 100k iterations per cell" trade the mc
 * backend exists for. GPULITMUS_ITERS scales the sampling side
 * (default 100000, the paper's count); GPULITMUS_MC_BUDGET the
 * replay budget (default 1<<20).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/strutil.h"
#include "common/table.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "mc/explorer.h"

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    uint64_t iters = harness::defaultIterations();
    uint64_t budget = benchutil::envOr("GPULITMUS_MC_BUDGET", 1u << 20);
    const sim::ChipProfile &chip = sim::chip("Titan");

    struct Case
    {
        const char *name;
        litmus::Test test;
    };
    const Case cases[] = {
        {"coRR", litmus::paperlib::coRR()},
        {"mp", litmus::paperlib::mp()},
        {"sb", litmus::paperlib::sb()},
        {"lb", litmus::paperlib::lb()},
        {"mp+membar.gls", litmus::paperlib::mpMembarGls()},
        {"lb+membar.ctas", litmus::paperlib::lbMembarCtas()},
        {"cas-sl", litmus::paperlib::casSl(false)},
        {"mp-cta",
         litmus::paperlib::mp(std::nullopt, /*inter_cta=*/false)},
    };

    std::cout << "exhaustive exploration vs " << iters
              << "-iteration sampling, Titan column 16\n\n";

    Table table;
    table.header({"test", "mc ms", "replays", "states", "exact",
                  "sim ms", "iters", "speedup"});
    std::vector<std::string> entries;
    for (const auto &c : cases) {
        mc::ExploreOptions opts;
        opts.machine.inc = sim::Incantations::all();
        opts.maxReplays = budget;
        mc::Explorer explorer(chip, c.test, opts);
        auto mc_start = std::chrono::steady_clock::now();
        mc::ExploreResult exact = explorer.explore();
        auto mc_end = std::chrono::steady_clock::now();
        double mc_ms = std::chrono::duration<double, std::milli>(
                           mc_end - mc_start)
                           .count();

        harness::RunConfig cfg;
        cfg.iterations = iters;
        auto sim_start = std::chrono::steady_clock::now();
        litmus::Histogram hist = harness::run(chip, c.test, cfg);
        auto sim_end = std::chrono::steady_clock::now();
        double sim_ms = std::chrono::duration<double, std::milli>(
                            sim_end - sim_start)
                            .count();

        double speedup = mc_ms > 0.0 ? sim_ms / mc_ms : 0.0;
        char mc_buf[32], sim_buf[32], speed_buf[32];
        std::snprintf(mc_buf, sizeof mc_buf, "%.2f", mc_ms);
        std::snprintf(sim_buf, sizeof sim_buf, "%.2f", sim_ms);
        std::snprintf(speed_buf, sizeof speed_buf, "%.1fx", speedup);
        table.row({c.name, mc_buf,
                   std::to_string(exact.stats.replays),
                   std::to_string(exact.stats.distinctStates),
                   exact.complete ? "yes" : "BOUNDED", sim_buf,
                   std::to_string(iters), speed_buf});

        std::string e = "{";
        e += "\"test\":\"" + jsonEscape(c.name) + "\",";
        e += "\"chip\":\"Titan\",";
        e += "\"mc_ms\":" + std::string(mc_buf) + ",";
        e += "\"mc_replays\":" +
             std::to_string(exact.stats.replays) + ",";
        e += "\"mc_states\":" +
             std::to_string(exact.stats.distinctStates) + ",";
        e += "\"mc_state_cuts\":" +
             std::to_string(exact.stats.stateCuts) + ",";
        e += "\"mc_sleep_skips\":" +
             std::to_string(exact.stats.sleepSkips) + ",";
        e += "\"mc_complete\":" +
             std::string(exact.complete ? "true" : "false") + ",";
        e += "\"reachable_states\":" +
             std::to_string(exact.finals.size()) + ",";
        e += "\"observed_states\":" +
             std::to_string(hist.counts().size()) + ",";
        e += "\"sim_ms\":" + std::string(sim_buf) + ",";
        e += "\"sim_iterations\":" + std::to_string(iters) + ",";
        e += "\"speedup\":" + std::to_string(speedup);
        e += "}";
        entries.push_back(std::move(e));

        // The sampler must stay inside the proven reachable set.
        if (exact.complete) {
            for (const auto &[key, count] : hist.counts()) {
                if (count > 0 && !exact.reachable(key)) {
                    std::cerr << "INCONSISTENT: " << c.name
                              << " sampled '" << key
                              << "' outside the exact set\n";
                    return 1;
                }
            }
        }
    }
    table.print(std::cout);

    if (!writeJsonArrayFile("BENCH_mc.json", entries)) {
        // Exit nonzero so CI artifact upload cannot silently skip
        // the file.
        std::cerr << "error: could not write BENCH_mc.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_mc.json (" << entries.size()
              << " tests)\n";
    return 0;
}
