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

    auto chips = benchutil::allResultChips();
    Table table;
    table.header(benchutil::chipHeader("variant", chips));

    // AMD chips run the test their OpenCL compiler produces; the
    // planner skips miscompiled cells, which render as "n/a".
    serve::Plan plan = benchutil::sweepRows(
        table, "dlb-lb", benchutil::libraryTest("dlb-lb"), chips,
        {"0", "750", "399", "2292", "0", "n/a", "13591"});
    benchutil::sweepRows(table, "dlb-lb+fences",
                         benchutil::libraryTest("dlb-lb+fences"), chips,
                         {"0", "0", "0", "0", "0", "n/a", "0"});
    table.print(std::cout);

    // Show the miscompilation evidence for the n/a cell.
    benchutil::printCompileNotes(plan, "HD6570");
    return 0;
}
