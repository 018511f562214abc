/**
 * @file
 * google-benchmark microbenchmarks of the engines themselves: the
 * simulator's iteration rate, the explorer's replay rate, the
 * candidate-execution enumerator, the .cat evaluator, the generator
 * and the relation algebra. These are
 * the knobs that determine how far the Sec. 5.4 validation scales.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "axiom/enumerate.h"
#include "cat/models.h"
#include "common/rng.h"
#include "eval/backend.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "mc/explorer.h"
#include "model/checker.h"
#include "scenario/registry.h"

using namespace gpulitmus;

namespace {

/** Sampling iterations through harness::runJob, the path every sim
 * cell takes (outcomes recorded by digest); items/s is iterations/s.
 * Each benchmark iteration is one 1,000-iteration job. */
void
simulateJobs(benchmark::State &state, const char *chip,
             const litmus::Test &test)
{
    harness::RunConfig cfg;
    cfg.iterations = 1000;
    const harness::Job job =
        harness::Job::fromConfig(sim::chip(chip), test, cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(harness::runJob(job));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(cfg.iterations));
}

void
BM_SimulatorIteration(benchmark::State &state)
{
    simulateJobs(state, "Titan", litmus::paperlib::mp());
}
BENCHMARK(BM_SimulatorIteration);

void
BM_SimulatorIterationSpinLock(benchmark::State &state)
{
    simulateJobs(state, "TesC", litmus::paperlib::casSl(false));
}
BENCHMARK(BM_SimulatorIterationSpinLock);

/** The sequential explorer on its heaviest scenario shape: the
 * unfenced flag barrier on the GTX Titan, capped at a fixed 65,536
 * replays per benchmark iteration (restore, step, state hashing and
 * memo probe — the explorer's per-layer row); items/s is replays/s. */
void
BM_ExploreFlagBarrierTitan(benchmark::State &state)
{
    std::string error;
    auto built =
        scenario::buildSpec("scenario:flag_barrier,fenced=0", &error);
    if (!built) {
        state.SkipWithError(error.c_str());
        return;
    }
    mc::ExploreOptions opts;
    opts.machine.inc = sim::Incantations::fromColumn(16);
    opts.machine.maxMicroSteps =
        std::max(opts.machine.maxMicroSteps, built->maxMicroSteps);
    opts.maxReplays = 65536;
    int64_t replays = 0;
    for (auto _ : state) {
        mc::ExploreResult r =
            mc::Explorer(sim::chip("Titan"), built->test, opts)
                .explore();
        replays += static_cast<int64_t>(r.stats.replays);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(replays);
}
BENCHMARK(BM_ExploreFlagBarrierTitan)->Unit(benchmark::kMillisecond);

void
BM_EnumerateExecutions(benchmark::State &state)
{
    litmus::Test test = litmus::paperlib::mp();
    for (auto _ : state)
        benchmark::DoNotOptimize(axiom::enumerateExecutions(test));
}
BENCHMARK(BM_EnumerateExecutions);

void
BM_ModelCheckMp(benchmark::State &state)
{
    litmus::Test test = litmus::paperlib::mp();
    model::Checker checker(cat::models::ptx());
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check(test));
}
BENCHMARK(BM_ModelCheckMp);

void
BM_CatEvaluate(benchmark::State &state)
{
    auto execs =
        axiom::enumerateExecutions(litmus::paperlib::casSl(false));
    const cat::Model &model = cat::models::ptx();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(execs[i++ % execs.size()]));
    }
}
BENCHMARK(BM_CatEvaluate);

void
BM_GenerateTests(benchmark::State &state)
{
    gen::GeneratorOptions opts;
    opts.maxEdges = 3;
    opts.maxTests = 200;
    auto pool = gen::defaultPool();
    for (auto _ : state)
        benchmark::DoNotOptimize(gen::generate(pool, opts));
}
BENCHMARK(BM_GenerateTests);

void
BM_RelationClosure(benchmark::State &state)
{
    Rng rng(3);
    axiom::Relation r(32);
    for (int i = 0; i < 32; ++i)
        for (int j = 0; j < 32; ++j)
            if (rng.chance(0.1))
                r.set(i, j);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.plus());
}
BENCHMARK(BM_RelationClosure);

/** The Tab. 6-shaped sweep (4 tests x 16 columns, 1k iterations)
 * through the campaign engine at varying worker counts — the scaling
 * curve of the batch API itself. */
void
BM_CampaignTab6Grid(benchmark::State &state)
{
    harness::Campaign campaign;
    campaign.iterations(1000)
        .overChips(std::vector<std::string>{"Titan"})
        .overColumns(1, 16)
        .overTests({litmus::paperlib::coRR(), litmus::paperlib::lb(),
                    litmus::paperlib::mp(), litmus::paperlib::sb()});
    for (auto _ : state) {
        eval::EngineOptions opts;
        opts.threads = static_cast<int>(state.range(0));
        opts.cache = false; // measure simulation, not memoisation
        eval::Engine engine(opts);
        benchmark::DoNotOptimize(engine.run(campaign));
    }
}
BENCHMARK(BM_CampaignTab6Grid)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/**
 * Emits BENCH_campaign.json: the Tab. 6 grid on the GTX Titan through
 * a JsonSink, with per-cell wall-clock and observation counts, so the
 * perf trajectory of the campaign engine is tracked run over run.
 */
bool
emitCampaignJson()
{
    harness::Campaign campaign;
    campaign.iterations(2000)
        .overChips(std::vector<std::string>{"Titan", "HD7970"})
        .overColumns(1, 16)
        .overTests({litmus::paperlib::coRR(), litmus::paperlib::lb(),
                    litmus::paperlib::mp(), litmus::paperlib::sb()});
    eval::JsonSink json;
    eval::Engine engine;
    engine.run(campaign, {&json});
    if (!json.writeFile("BENCH_campaign.json")) {
        // Propagate failure so CI artifact upload cannot silently
        // skip the file.
        std::cerr << "error: could not write BENCH_campaign.json\n";
        return false;
    }
    std::cerr << "wrote BENCH_campaign.json (" << json.size()
              << " cells, " << engine.threads() << " workers)\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // List-only invocations should stay instant and side-effect-free.
    bool list_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_list_tests", 0) ==
            0)
            list_only = true;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!list_only && !emitCampaignJson())
        return 1;
    return 0;
}
