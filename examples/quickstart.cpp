/**
 * @file
 * Quickstart: the full gpulitmus workflow on one test.
 *
 * 1. Parse a litmus test from the Fig. 12 text format.
 * 2. Run it 100k times on a simulated GTX Titan under the most
 *    effective incantations and print the outcome histogram.
 * 3. Ask the paper's PTX memory model whether the relaxed outcome is
 *    allowed, and show a witness execution.
 * 4. Sweep the test across an incantation-column grid: a Campaign
 *    run on the batched evaluation engine.
 */

#include <iostream>

#include "cat/models.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/parser.h"
#include "model/checker.h"

using namespace gpulitmus;

int
main()
{
    // A store-buffering (sb) test, the classic x86-TSO litmus shape,
    // in the GPU litmus format: two threads in distinct CTAs.
    const char *source = R"(
GPU_PTX SB
{0:.reg .b64 r1 = x; 0:.reg .b64 r3 = y;
 1:.reg .b64 r1 = y; 1:.reg .b64 r3 = x;}
 T0                 | T1                 ;
 mov.s32 r0,1       | mov.s32 r0,1       ;
 st.cg.s32 [r1],r0  | st.cg.s32 [r1],r0  ;
 ld.cg.s32 r2,[r3]  | ld.cg.s32 r2,[r3]  ;
ScopeTree(grid(cta(warp T0)) (cta(warp T1)))
exists (0:r2=0 /\ 1:r2=0)
)";

    litmus::ParseError err;
    auto test = litmus::parseTest(source, &err);
    if (!test) {
        std::cerr << "parse error: " << err.message << "\n";
        return 1;
    }
    std::cout << "Parsed test:\n" << test->str() << "\n";

    // Run on the simulated GTX Titan with all four incantations.
    harness::RunConfig config;
    config.iterations = harness::defaultIterations();
    config.inc = sim::Incantations::all();
    litmus::Histogram hist =
        harness::run(sim::chip("Titan"), *test, config);
    std::cout << hist.str() << "\n";

    // Check the outcome against the paper's PTX model.
    model::Checker checker(cat::models::ptx());
    model::Verdict verdict = checker.check(*test);
    std::cout << "PTX model: " << verdict.numCandidates
              << " candidate executions, " << verdict.numAllowed
              << " allowed; relaxed outcome is "
              << (verdict.conditionSatisfiable ? "ALLOWED"
                                               : "FORBIDDEN")
              << "\n";
    if (verdict.witness) {
        std::cout << "\nwitness execution:\n"
                  << verdict.witness->str();
    }

    // The same test with membar.gl fences is forbidden — and the
    // simulator agrees.
    auto fenced = litmus::parseTest(R"(
GPU_PTX SB+membars
{0:.reg .b64 r1 = x; 0:.reg .b64 r3 = y;
 1:.reg .b64 r1 = y; 1:.reg .b64 r3 = x;}
 T0                 | T1                 ;
 mov.s32 r0,1       | mov.s32 r0,1       ;
 st.cg.s32 [r1],r0  | st.cg.s32 [r1],r0  ;
 membar.gl          | membar.gl          ;
 ld.cg.s32 r2,[r3]  | ld.cg.s32 r2,[r3]  ;
ScopeTree(grid(cta(warp T0)) (cta(warp T1)))
exists (0:r2=0 /\ 1:r2=0)
)",
                                    &err);
    litmus::Histogram fenced_hist =
        harness::run(sim::chip("Titan"), *fenced, config);
    std::cout << "\nWith membar.gl fences: observed "
              << fenced_hist.observed() << "/" << fenced_hist.total()
              << "; model says "
              << (checker.allows(*fenced) ? "allowed" : "forbidden")
              << "\n";

    // Sweeps are first-class: the same test across all 16 incantation
    // columns (Tab. 6), sharded over a worker pool, rendered by a
    // table sink. Bit-identical results at any thread count.
    eval::TableSink table("test", eval::TableSink::byLabel(),
                          eval::TableSink::byColumn());
    eval::Engine engine;
    engine.run(harness::Campaign()
                   .iterations(config.iterations)
                   .test(*test, "sb")
                   .test(*fenced, "sb+membar.gls")
                   .overColumns(1, 16),
               {&table});
    std::cout << "\nIncantation sweep (obs/100k, "
              << engine.threads() << " worker threads):\n";
    table.render().print(std::cout);
    return 0;
}
