/**
 * @file
 * Regenerates Fig. 1 of the paper: the coRR read-read coherence test
 * (intra-CTA, global memory), observed per 100k runs across the
 * seven result chips. Fermi and Kepler exhibit the violation; Maxwell
 * and both AMD chips do not.
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 1 - PTX test for coherent reads (coRR)",
        "init: global x=0; T0: st.cg [x],1 ||"
        " T1: ld.cg r1,[x]; ld.cg r2,[x]; final: r1=1 /\\ r2=0;"
        " threads: intra-CTA");

    auto chips = benchutil::allResultChips();
    Table table;
    table.header(benchutil::chipHeader("obs/100k", chips));
    benchutil::sweepRows(table, "coRR", benchutil::libraryTest("coRR"),
                         chips,
                         {"11642", "8879", "9599", "9787", "0", "0",
                          "0"});
    table.print(std::cout);
    return 0;
}
