/**
 * @file
 * Quickstart: the full gpulitmus workflow on one test.
 *
 * 1. Parse a litmus test from the Fig. 12 text format.
 * 2. Run it 100k times on a simulated GTX Titan under the most
 *    effective incantations and print the outcome histogram.
 * 3. Ask the paper's PTX memory model whether the relaxed outcome is
 *    allowed, and show a witness execution.
 * 4. Sweep the test across an incantation-column grid: a sweep
 *    request, planned as `gpulitmus sweep` plans it and run on the
 *    batched evaluation engine.
 */

#include <iostream>

#include "cat/models.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/parser.h"
#include "model/checker.h"
#include "serve/protocol.h"

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

    // Run on the simulated GTX Titan: one Job, which defaults to all
    // four incantations and the harness base seed.
    harness::Job job;
    job.chip = sim::chip("Titan");
    job.test = *test;
    job.iterations = harness::defaultIterations();
    harness::JobResult run = harness::runJob(job);
    std::cout << run.hist.str() << "\n";

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
    job.test = *fenced;
    harness::JobResult fenced_run = harness::runJob(job);
    std::cout << "\nWith membar.gl fences: observed "
              << fenced_run.hist.observed() << "/"
              << fenced_run.hist.total()
              << "; model says "
              << (checker.allows(*fenced) ? "allowed" : "forbidden")
              << "\n";

    // Sweeps are first-class: the same tests across all 16 incantation
    // columns (Tab. 6, the default), planned as `gpulitmus sweep` and
    // the daemon plan them, sharded over a worker pool, rendered as an
    // obs/100k grid. Bit-identical results at any thread count.
    serve::Request sweep;
    sweep.cmd = "sweep";
    sweep.tests = {{"", test->str(), ""}, {"", fenced->str(), ""}};
    sweep.iterations = job.iterations;
    sweep.seed = job.seed;
    serve::Plan plan;
    std::string error;
    if (!serve::planJobs(sweep, &plan, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    eval::Engine engine;
    auto results = engine.run(plan.jobs);
    std::cout << "\nIncantation sweep (obs/100k, "
              << engine.threads() << " worker threads):\n";
    eval::obsTable(results, "test", [](const eval::EvalResult &r) {
        return r.label();
    }).print(std::cout);
    return 0;
}
