/**
 * @file
 * Regenerates Fig. 9: cas-sl, the compare-and-swap spin lock of CUDA
 * by Example (Fig. 2), distilled via Tab. 5. Without fences a thread
 * that acquires the lock can read a stale value of the data the
 * previous critical section wrote — the bug Nvidia's erratum [33]
 * acknowledges. With membar.gl fences the behaviour disappears.
 *
 * Driven through the Scenario API: the rows are the
 * `scenario:cas_spinlock` registry scenario (whose forbidden
 * condition is exactly the Fig. 9 stale read), so "observed" is
 * wrong-lock-acquisitions per 100k.
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 9 - PTX compare-and-swap spin lock (cas-sl)",
        "init: global x=0, m=1; T0: st.cg [x],1; [fence;]"
        " atom.exch r0,[m],0 || T1: atom.cas r1,[m],0,1; if acquired:"
        " [fence;] ld.cg r3,[x]; forbidden: r1=0 /\\ r3=0;"
        " threads: inter-CTA (scenario:cas_spinlock)");

    auto chips = benchutil::allResultChips();
    Table table;
    table.header(benchutil::chipHeader("variant", chips));
    benchutil::sweepRows(table, "cas-sl",
                         benchutil::scenarioTest("scenario:cas_spinlock"),
                         chips,
                         {"0", "47", "43", "512", "0", "508", "748"});
    benchutil::sweepRows(
        table, "cas-sl+fences",
        benchutil::scenarioTest("scenario:cas_spinlock,fenced=1"), chips,
        {"0", "0", "0", "0", "0", "0", "0"});
    table.print(std::cout);
    return 0;
}
