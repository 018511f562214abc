/**
 * @file
 * Audit of the CUDA by Example spin lock (Fig. 2 / Sec. 3.2.2) — the
 * bug that prompted Nvidia's erratum — through the Scenario API.
 *
 * The lock is a registry scenario (`scenario:cas_spinlock`) whose
 * forbidden condition is the bug: the lock was acquired yet the read
 * returned stale data. One sweep request samples both variants
 * across chips, and the dot-product client
 * (`scenario:spinlock_dot_product`) gets the *exact* treatment — the
 * exhaustive explorer either exhibits a lost-update schedule or
 * proves there is none.
 */

#include <iostream>

#include "cuda/snippets.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "mc/explorer.h"
#include "scenario/catalog.h"
#include "serve/protocol.h"

using namespace gpulitmus;

int
main()
{
    std::cout << "CUDA by Example spin lock (original):\n"
              << cuda::casSpinLockSource(false) << "\n";

    // Both lock variants on three chips as one sweep request, planned
    // as `gpulitmus sweep` plans it; the HD7970 runs what its OpenCL
    // compiler emits.
    serve::Request sweep;
    sweep.cmd = "sweep";
    for (const char *spec :
         {"scenario:cas_spinlock", "scenario:cas_spinlock,fenced=1"})
        sweep.tests.push_back({"", "", spec});
    sweep.chips = {"TesC", "Titan", "HD7970"};
    sweep.columns = {16};
    sweep.iterations = harness::defaultIterations();
    sweep.seed = harness::RunConfig{}.seed;
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
            std::cout << "=== " << shown << " ===\n";
        }
        std::cout << "  " << r.job->chip.shortName << ": "
                  << r.observedPer100k
                  << "/100k lock acquisitions read stale data\n";
    }

    // End-to-end, exactly: the dot product of CUDA by Example
    // App 1.2 merges per-CTA sums under this lock. The explorer
    // enumerates every schedule instead of sampling.
    std::cout << "\ndot-product client (3 threads, simulated Tesla"
                 " C2075), exhaustive:\n";
    for (bool fences : {false, true}) {
        litmus::Test test = scenario::spinlockDotProduct(3, fences);
        mc::ExploreOptions opts;
        opts.machine.maxMicroSteps = 20000;
        // The 3-thread lock needs ~1.2M replays to drain; the
        // default budget is a hair under.
        opts.maxReplays = 1u << 22;
        mc::ExploreResult exact =
            mc::Explorer(sim::chip("TesC"), test, opts).explore();
        std::cout << "  " << (fences ? "with fences:   "
                                     : "without fences:");
        if (!exact.satisfying.empty()) {
            std::cout << " " << exact.satisfying.size()
                      << " reachable wrong-sum state(s) — the bug,"
                         " witnessed by a concrete schedule\n";
        } else if (exact.fairComplete) {
            std::cout << " zero lost-update executions"
                         " (every terminating schedule explored)\n";
        } else {
            std::cout << " no wrong sum within the budget\n";
        }
    }
    std::cout << "\nNvidia's erratum [33]: the code \"did not"
                 " consider [weak behaviours] and requires the"
                 " addition of __threadfence() instructions\".\n";
    return 0;
}
