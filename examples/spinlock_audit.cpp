/**
 * @file
 * Audit of the CUDA by Example spin lock (Fig. 2 / Sec. 3.2.2) — the
 * bug that prompted Nvidia's erratum — through the Scenario API.
 *
 * The lock is a registry scenario (`scenario:cas_spinlock`) whose
 * forbidden condition is the bug: the lock was acquired yet the read
 * returned stale data. One campaign samples both variants across
 * chips; the model side checks the PTX model's opinion; and the
 * dot-product client (`scenario:spinlock_dot_product`) gets the
 * *exact* treatment — the exhaustive explorer either exhibits a
 * lost-update schedule or proves there is none.
 */

#include <iostream>

#include "cuda/snippets.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "mc/explorer.h"
#include "scenario/catalog.h"

using namespace gpulitmus;

int
main()
{
    std::cout << "CUDA by Example spin lock (original):\n"
              << cuda::casSpinLockSource(false) << "\n";

    // Both lock variants on three chips, plus the PTX model's
    // verdict per variant, in one mixed-backend campaign grid.
    harness::Campaign campaign;
    campaign.iterations(harness::defaultIterations())
        .overChips(std::vector<std::string>{"TesC", "Titan", "HD7970"})
        .scenario("scenario:cas_spinlock")
        .scenario("scenario:cas_spinlock,fenced=1");
    eval::Engine engine;
    auto results = engine.run(campaign);

    size_t next = 0;
    for (bool fences : {false, true}) {
        std::cout << "=== scenario: cas_spinlock"
                  << (fences ? ",fenced=1" : "") << " ===\n";
        for (const char *chip : {"TesC", "Titan", "HD7970"}) {
            std::cout << "  " << chip << ": "
                      << results[next++].observedPer100k
                      << "/100k lock acquisitions read stale data\n";
        }
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
