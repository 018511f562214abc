/**
 * @file
 * Regenerates Fig. 11: sl-future, distilled from the He-Yu database
 * spin lock (Fig. 10). A critical section can read a value written by
 * the *next* critical section, violating transaction isolation. The
 * fix fences before the release and unlocks with an atomic exchange.
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 11 - PTX spin lock future value test (sl-future)",
        "init: global x=0, m=1; T0: ld.cg r0,[x]; unlock ||"
        " T1: lock; st.cg [x],1; final: r0=1 /\\ r2=0;"
        " threads: inter-CTA (AMD rows are n/a: the OpenCL compiler"
        " auto-inserts fences, Sec. 2.3)");

    auto chips = benchutil::nvidiaChips();
    Table table;
    table.header(benchutil::chipHeader("variant", chips));
    benchutil::sweepRows(table, "sl-future",
                         benchutil::libraryTest("sl-future"), chips,
                         {"0", "99", "41", "58", "0"});
    benchutil::sweepRows(table, "sl-future+fixed",
                         benchutil::libraryTest("sl-future+fixed"), chips,
                         {"0", "0", "0", "0", "0"});
    table.print(std::cout);
    return 0;
}
