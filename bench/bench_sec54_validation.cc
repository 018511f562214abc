/**
 * @file
 * Regenerates the model validation of Sec. 5.4 as ONE validate
 * request, planned like `gpulitmus validate` plans it: litmus tests are
 * generated with the diy extension, every (test x Nvidia chip) cell
 * runs through the sim backend, every (test x model) pair through an
 * axiomatic backend, and eval::conform joins the two sides —
 * the model is experimentally sound iff no cell is "unsound"
 * (observed-but-forbidden).
 *
 * The paper validates 10930 tests at 100k iterations each; set
 * GPULITMUS_VALIDATION_TESTS / GPULITMUS_VALIDATION_ITERS to scale
 * (defaults keep this binary around a minute). As ablations, the same
 * observations are checked against SC, plain (unscoped) RMO and the
 * Sec. 6 operational baseline, and against full SC-per-location: the
 * scoped model stays sound; SC and full SC-per-location are wildly
 * unsound (coRR!), and the unscoped models fail on scoped-fence
 * tests such as lb+membar.ctas.
 */

#include <map>
#include <set>

#include "bench_util.h"
#include "eval/backend.h"
#include "gen/generator.h"
#include "litmus/library.h"

using namespace gpulitmus;

int
main()
{
    uint64_t max_tests = benchutil::envOr("GPULITMUS_VALIDATION_TESTS", 1500);
    uint64_t iters = benchutil::envOr("GPULITMUS_VALIDATION_ITERS", 1500);
    uint64_t max_edges = benchutil::envOr("GPULITMUS_VALIDATION_EDGES", 4);

    benchutil::printHeader(
        "Sec. 5.4 - validating the model against generated tests",
        "diy-generated tests, run on every Nvidia chip, checked"
        " against the PTX model and ablation models");

    // maxEdges=4 yields 440 distinct tests in milliseconds; 5 yields
    // 5714 and 6 exceeds the paper's 10930 — set
    // GPULITMUS_VALIDATION_EDGES=6 GPULITMUS_VALIDATION_TESTS=10930
    // to replicate the paper's scale.
    gen::GeneratorOptions gopts;
    gopts.maxEdges = static_cast<int>(max_edges);
    gopts.maxTests = max_tests;
    auto generated = gen::generate(gen::defaultPool(), gopts);

    // The generated family travels as inline source, the paper's
    // hand-picked tests by library id.
    std::vector<serve::TestSpec> tests;
    for (const auto &g : generated)
        tests.push_back(benchutil::inCodeTest(g.test));
    for (const auto &nt : litmus::paperlib::allTests())
        tests.push_back(benchutil::libraryTest(nt.id));

    // The PTX model plus the ablation models, as eval backends.
    const std::vector<std::string> models = {
        "ptx", "rmo", "baseline", "tso", "sc", "sc-per-loc-full"};

    // The whole validation is ONE validate request over the Nvidia
    // chips: per (test x chip) a simulation plus one job per model,
    // all sharded across the worker pool (GPULITMUS_JOBS); the
    // conformance join pairs the two sides. Sec. 5.5: the model covers
    // accesses with the .cg operator only; .ca (L1) and volatile
    // accesses are outside its scope (no fence restores .ca ordering
    // on Fermi), so — like the paper — the planner excludes them.
    serve::Request req = benchutil::request(
        "validate", std::move(tests), benchutil::nvidiaChips());
    req.models = models;
    req.iterations = iters;
    // Computed jobs only: deduped/cached cells are never reported.
    auto progress = [&](size_t done, size_t total,
                        const eval::EvalResult &) {
        if (done % 500 == 0 || done == total) {
            std::cerr << "  computed " << done << "/" << total
                      << " jobs\r";
        }
    };
    serve::Plan plan;
    auto results = benchutil::run(req, plan, progress);
    std::cerr << "\n";

    std::cout << "excluded " << plan.outOfScope
              << " paper tests with .ca/volatile accesses (outside"
                 " the model's scope, Sec. 5.5)\n";
    const size_t validated = req.tests.size() - plan.outOfScope;
    std::cout << "tests: " << validated << " (" << generated.size()
              << " generated + paper library), " << iters
              << " iterations each\n\n";

    uint64_t total_runs = 0;
    std::set<std::string> weak_tests;
    for (const auto &r : results) {
        if (!r.hasHist())
            continue;
        total_runs += r.hist->total();
        if (r.hist->observed() > 0)
            weak_tests.insert(r.label());
    }

    // The Sec. 5.4 table: per model, how many observed-but-forbidden
    // outcomes across every (test x chip) cell.
    struct ModelStats
    {
        uint64_t violations = 0;
        std::string example;
    };
    std::map<std::string, ModelStats> stats;
    const serve::Outcome outcome = serve::summarize(req, results);
    for (const auto &cell : outcome.conformance) {
        ModelStats &ms = stats[cell.model];
        ms.violations += cell.violations.size();
        if (!cell.violations.empty() && ms.example.empty()) {
            ms.example = cell.test + " on " + cell.chip + ": " +
                         cell.violations.front();
        }
    }

    Table table;
    table.header({"model", "observed-but-forbidden", "verdict",
                  "first counterexample"});
    for (const auto &model : models) {
        const ModelStats &ms = stats[model];
        table.row({model, std::to_string(ms.violations),
                   ms.violations == 0 ? "SOUND" : "UNSOUND",
                   ms.example.empty() ? "-" : ms.example});
    }
    table.print(std::cout);

    std::cout << "\ntotal simulated runs: " << total_runs
              << "; tests with weak behaviour observed: "
              << weak_tests.size() << "/" << validated << "\n";
    std::cout << "Paper's result: the scoped PTX model is"
                 " experimentally sound w.r.t. all 10930 tests on"
                 " every Nvidia chip of Tab. 1.\n";
    return 0;
}
