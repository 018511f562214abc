/**
 * @file
 * Regenerates Fig. 5: mp with all accesses marked .volatile and both
 * locations in shared memory, intra-CTA. Contrary to the PTX manual,
 * .volatile does not restore SC for shared memory on Fermi or Kepler.
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 5 - PTX mp with volatiles (mp-volatile)",
        "init: shared x=0, y=0; T0: st.volatile [x],1;"
        " st.volatile [y],1 || T1: ld.volatile r1,[y];"
        " ld.volatile r2,[x]; final: r1=1 /\\ r2=0;"
        " threads: intra-CTA");

    auto chips = benchutil::nvidiaChips();
    Table table;
    table.header(benchutil::chipHeader("obs/100k", chips));
    benchutil::sweepRows(table, "mp-volatile",
                         benchutil::libraryTest("mp-volatile"), chips,
                         {"6301", "4977", "2753", "2188", "0"});
    table.print(std::cout);
    return 0;
}
