/**
 * @file
 * Regenerates Fig. 8: dlb-lb, the load-buffering bug of the
 * Cederman-Tsigas deque (a steal can obtain a task pushed *after* the
 * corresponding pop emptied the deque, losing a task).
 *
 * The HD6570 cell is "n/a": the TeraScale 2 OpenCL compiler reorders
 * the steal's load past its CAS, a miscompilation that invalidates
 * the test (Sec. 3.2.1); we reproduce it through the simulated AMD
 * pipeline.
 */

#include "bench_util.h"
#include "litmus/library.h"
#include "opt/amd.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 8 - PTX lb from load-balancing (dlb-lb)",
        "init: global t=0, h=0; T0: atom.cas r0,[h],0,1; [fence;]"
        " st.cg [t],1 || T1: ld.cg r1,[t]; [fence;]"
        " atom.cas r3,[h],0,1; final: r0=1 /\\ r1=1;"
        " threads: inter-CTA");

    auto cfg = benchutil::config();
    auto chips = benchutil::allResultChips();
    Table table;
    table.header(benchutil::chipHeader("variant", chips));

    // Every (variant x chip) cell that survives compilation is one
    // campaign job; AMD chips run the test their OpenCL compiler
    // produces, miscompiled cells render as "n/a".
    harness::Campaign campaign;
    campaign.base(cfg);
    std::vector<std::vector<bool>> runnable(2);
    for (bool fences : {false, true}) {
        litmus::Test test = litmus::paperlib::dlbLb(fences);
        for (const auto &chip : chips) {
            litmus::Test to_run = test;
            if (chip.isAmd()) {
                auto compiled = opt::amdCompile(test, chip);
                if (compiled.miscompiled) {
                    runnable[fences].push_back(false);
                    continue;
                }
                to_run = compiled.compiled;
            }
            runnable[fences].push_back(true);
            campaign.add(
                harness::Job::fromConfig(chip, to_run, cfg));
        }
    }
    auto results = benchutil::engine().run(campaign);

    size_t next = 0;
    for (bool fences : {false, true}) {
        litmus::Test test = litmus::paperlib::dlbLb(fences);
        std::vector<std::string> measured{std::string(test.name) +
                                          " (sim)"};
        for (size_t c = 0; c < chips.size(); ++c) {
            if (!runnable[fences][c])
                measured.push_back("n/a");
            else
                measured.push_back(std::to_string(
                    results[next++].observedPer100k));
        }
        table.row(measured);
        if (!fences) {
            table.row({"dlb-lb (paper)", "0", "750", "399", "2292",
                       "0", "n/a", "13591"});
        } else {
            table.row({"dlb-lb+fences (paper)", "0", "0", "0", "0",
                       "0", "n/a", "0"});
        }
    }
    table.print(std::cout);

    // Show the miscompilation evidence for the n/a cell.
    auto bad = opt::amdCompile(litmus::paperlib::dlbLb(false),
                               sim::chip("HD6570"));
    std::cout << "\nHD6570 compile notes:\n";
    for (const auto &q : bad.quirks)
        std::cout << "  " << q << "\n";
    return 0;
}
