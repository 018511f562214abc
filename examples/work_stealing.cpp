/**
 * @file
 * Audit of the Cederman-Tsigas work-stealing deque (Fig. 6 /
 * Sec. 3.2.1, GPU Computing Gems) through the Scenario API: the
 * push/steal race is the `work_stealing_deque` registry scenario
 * whose forbidden condition is a lost task. One sweep request samples
 * both fence variants across chips; the explorer settles the
 * question exactly; and the TeraScale OpenCL compiler adds its own
 * way of breaking the code.
 */

#include <iostream>

#include "cuda/snippets.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "mc/explorer.h"
#include "opt/amd.h"
#include "scenario/catalog.h"
#include "serve/protocol.h"

using namespace gpulitmus;

int
main()
{
    std::cout << "Cederman-Tsigas deque (excerpt, original):\n"
              << cuda::dequeSource(false) << "\n";

    // Both variants across three chips as one sweep request, planned
    // as `gpulitmus sweep` plans it: observed = tasks lost per 100k
    // push/steal races.
    serve::Request sweep;
    sweep.cmd = "sweep";
    for (const char *spec : {"scenario:work_stealing_deque",
                             "scenario:work_stealing_deque,fenced=1"})
        sweep.tests.push_back({"", "", spec});
    sweep.chips = {"TesC", "GTX6", "Titan"};
    sweep.columns = {16};
    sweep.iterations = harness::defaultIterations();
    sweep.seed = harness::kBaseSeed;
    serve::Plan plan;
    std::string error;
    if (!serve::planJobs(sweep, &plan, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    eval::Engine engine;
    std::string shown;
    for (const auto &r : engine.run(plan.jobs)) {
        if (r.label() != shown) {
            shown = r.label();
            std::cout << "=== " << shown
                      << " (steal sees the tail, reads a stale task)"
                      << " ===\n";
        }
        std::cout << "  " << r.job->chip.shortName << ": "
                  << r.observedPer100k << " tasks lost /100k\n";
    }

    // Exact verdicts: either a concrete task-losing schedule exists,
    // or none does — no sampling luck involved.
    std::cout << "exhaustive, on the GTX Titan:\n";
    for (bool fences : {false, true}) {
        litmus::Test test = scenario::workStealingDeque(fences);
        mc::ExploreResult exact =
            mc::Explorer(sim::chip("Titan"), test, {}).explore();
        std::cout << "  " << (fences ? "with fences:   "
                                     : "without fences:");
        if (!exact.satisfying.empty())
            std::cout << " task loss reachable (definitive)\n";
        else if (exact.complete)
            std::cout << " task loss unreachable, proven over every"
                         " schedule\n";
        else
            std::cout << " no task loss within the budget\n";
    }

    // The TeraScale 2 OpenCL compiler breaks the deque in a
    // different way: it reorders the steal's load past the CAS of
    // the pop/steal pair (dlb-lb, Fig. 8).
    auto compiled = opt::amdCompile(cuda::distillDequeLb(false),
                                    sim::chip("HD6570"));
    std::cout << "\nOpenCL on Radeon HD 6570:\n";
    for (const auto &q : compiled.quirks)
        std::cout << "  " << q << "\n";
    return 0;
}
