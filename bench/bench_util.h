/**
 * @file
 * Shared plumbing for the benchmark binaries that regenerate the
 * paper's tables and figures.
 *
 * Every binary prints (a) the simulated observation counts, and (b)
 * the paper's published numbers for the same cell, so the shape can
 * be compared at a glance. Iteration counts come from GPULITMUS_ITERS
 * (default 100000, the paper's count); observations are normalised to
 * obs/100k.
 */

#ifndef GPULITMUS_BENCH_BENCH_UTIL_H
#define GPULITMUS_BENCH_BENCH_UTIL_H

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
#include "sim/chip.h"

namespace gpulitmus::benchutil {

/** Positive-integer environment override with a fallback (shared by
 * the perf benches for their budget/rep knobs; iteration counts come
 * from harness::defaultIterations). */
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

inline harness::RunConfig
config()
{
    harness::RunConfig c;
    c.iterations = harness::defaultIterations();
    return c;
}

/**
 * The shared campaign engine for this binary: worker count from
 * GPULITMUS_JOBS (default: hardware concurrency), results cached
 * across sweeps so a cell queried by two tables is simulated once.
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
              << "iterations/run: " << config().iterations
              << " (set GPULITMUS_ITERS to change); all counts are"
                 " normalised to obs/100k\n"
              << "=====================================================\n";
}

/** Run one per-chip campaign row and append the measured and paper
 * rows; obsRows/scenarioRows differ only in how the test lands on
 * the campaign. */
inline void
campaignRows(Table &table, const std::string &label,
             harness::Campaign &campaign,
             const std::vector<sim::ChipProfile> &chips,
             const std::vector<std::string> &paper)
{
    auto results = engine().run(campaign.overChips(chips));
    std::vector<std::string> measured{label + " (sim)"};
    for (const auto &r : results)
        measured.push_back(std::to_string(r.observedPer100k));
    table.row(measured);
    std::vector<std::string> reference{label + " (paper)"};
    for (const auto &p : paper)
        reference.push_back(p);
    table.row(reference);
}

/** Append measured and paper rows for one test configuration. The
 * per-chip cells are one campaign batch, sharded across the engine's
 * worker pool. */
inline void
obsRows(Table &table, const std::string &label,
        const litmus::Test &test,
        const std::vector<sim::ChipProfile> &chips,
        const std::vector<std::string> &paper,
        const harness::RunConfig &cfg)
{
    harness::Campaign campaign;
    campaign.base(cfg).test(test, label);
    campaignRows(table, label, campaign, chips, paper);
}

/** obsRows for a registry scenario spec: one campaign batch over the
 * chips, measured row + paper row. The scenario's recommended
 * micro-step cap rides along via Campaign::scenario. */
inline void
scenarioRows(Table &table, const std::string &label,
             const std::string &spec,
             const std::vector<sim::ChipProfile> &chips,
             const std::vector<std::string> &paper,
             const harness::RunConfig &cfg)
{
    harness::Campaign campaign;
    campaign.base(cfg).scenario(spec);
    campaignRows(table, label, campaign, chips, paper);
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

#endif // GPULITMUS_BENCH_BENCH_UTIL_H
