/**
 * @file
 * Regenerates Fig. 7: the dlb-mp test distilled (via the Tab. 5
 * mapping) from the push/steal pair of the Cederman-Tsigas
 * work-stealing deque. Without fences a steal can read a stale task,
 * so the deque loses work; adding the (+) fences forbids it.
 *
 * Driven through the Scenario API: the rows are the
 * `scenario:work_stealing_deque` registry scenario (forbidden
 * condition: the thief saw the pushed tail but read an empty slot),
 * so "observed" is lost tasks per 100k.
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 7 - PTX mp from load-balancing (dlb-mp)",
        "init: global t=0, d=0; T0: push (write task, bump tail) ||"
        " T1: steal (read tail, read task); forbidden: r0=1 /\\ r1=0;"
        " threads: inter-CTA (scenario:work_stealing_deque)");

    auto chips = benchutil::allResultChips();
    Table table;
    table.header(benchutil::chipHeader("variant", chips));
    benchutil::sweepRows(
        table, "dlb-mp",
        benchutil::scenarioTest("scenario:work_stealing_deque"), chips,
        {"0", "4", "36", "65", "0", "0", "0"});
    benchutil::sweepRows(
        table, "dlb-mp+fences",
        benchutil::scenarioTest("scenario:work_stealing_deque,fenced=1"),
        chips, {"0", "0", "0", "0", "0", "0", "0"});
    table.print(std::cout);
    return 0;
}
