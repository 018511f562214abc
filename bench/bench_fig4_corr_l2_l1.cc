/**
 * @file
 * Regenerates Fig. 4: coRR mixing cache operators (first load .cg
 * from the L2, second load .ca from the L1), intra-CTA, swept over
 * fence strengths.
 *
 * On the Tesla C2075 no fence guarantees that an updated value read
 * from the L2 is subsequently read from the L1; on the GTX 540m a
 * membar.cta is not enough (1934/100k) but membar.gl is.
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 4 - PTX coRR mixing cache operators (coRR-L2-L1)",
        "init: global x=0; T0: st.cg [x],1 ||"
        " T1: ld.cg r1,[x]; fence; ld.ca r2,[x];"
        " final: r1=1 /\\ r2=0; threads: intra-CTA");

    auto chips = benchutil::nvidiaChips();
    Table table;
    table.header(benchutil::chipHeader("fence", chips));

    struct RowSpec
    {
        std::string label;
        std::string test; ///< paper-library id
        std::vector<std::string> paper;
    };
    std::vector<RowSpec> rows = {
        {"no-op", "coRR-L2-L1", {"2556", "2982", "2", "141", "0"}},
        {"membar.cta", "coRR-L2-L1+membar.cta",
         {"1934", "2180", "0", "0", "0"}},
        {"membar.gl", "coRR-L2-L1+membar.gl",
         {"0", "1496", "0", "0", "0"}},
        {"membar.sys", "coRR-L2-L1+membar.sys",
         {"0", "1428", "0", "0", "0"}},
    };

    for (const auto &row : rows) {
        benchutil::sweepRows(table, row.label,
                             benchutil::libraryTest(row.test), chips,
                             row.paper);
    }
    table.print(std::cout);
    return 0;
}
