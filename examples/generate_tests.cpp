/**
 * @file
 * Drive the diy-style generator (Sec. 4.1): enumerate relaxation
 * cycles, print the synthesised litmus tests, and cross-check each
 * against the PTX model and a simulated chip.
 *
 * Usage: generate_tests [max-edges] [max-tests] [chip]
 */

#include <cstdlib>
#include <iostream>

#include "cat/models.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "model/checker.h"

using namespace gpulitmus;

int
main(int argc, char **argv)
{
    gen::GeneratorOptions opts;
    opts.maxEdges = argc > 1 ? std::atoi(argv[1]) : 4;
    opts.maxTests = argc > 2
                        ? static_cast<size_t>(std::atoll(argv[2]))
                        : 12;
    std::string chip_name = argc > 3 ? argv[3] : "Titan";

    auto tests = gen::generate(gen::defaultPool(), opts);
    std::cout << "generated " << tests.size()
              << " tests (cycle length <= " << opts.maxEdges
              << ")\n\n";

    model::Checker checker(cat::models::ptx());
    harness::Job job;
    job.chip = sim::chip(chip_name);
    job.iterations =
        std::max<uint64_t>(2000, harness::defaultIterations() / 20);

    for (const auto &g : tests) {
        std::cout << "=== cycle: " << g.cycleName << " ===\n";
        std::cout << g.test.str();
        bool allowed = checker.allows(g.test);
        job.test = g.test;
        uint64_t obs = harness::runJob(job).observedPer100k;
        std::cout << "PTX model: "
                  << (allowed ? "ALLOWED" : "FORBIDDEN") << "; "
                  << chip_name << ": " << obs << "/100k";
        if (!allowed && obs > 0)
            std::cout << "  <-- SOUNDNESS VIOLATION";
        std::cout << "\n\n";
    }
    return 0;
}
