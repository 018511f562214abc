/**
 * @file
 * Regenerates Fig. 3: mp with L1 (.ca) load cache operators and .cg
 * stores, inter-CTA, swept over the fence strengths no-op /
 * membar.cta / membar.gl / membar.sys.
 *
 * The headline finding: on the Tesla C2075 no fence restores the
 * ordering — stale values keep being read from the L1 — so no fence
 * suffices under default CUDA compilation (loads default to .ca).
 */

#include "bench_util.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Fig. 3 - PTX mp with L1 cache operators (mp-L1)",
        "init: global x=0, y=0; T0: st.cg [x],1; fence; st.cg [y],1 ||"
        " T1: ld.ca r1,[y]; fence; ld.ca r2,[x];"
        " final: r1=1 /\\ r2=0; threads: inter-CTA");

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
        {"no-op", "mp-L1", {"4979", "10581", "3635", "6011", "3"}},
        {"membar.cta", "mp-L1+membar.cta",
         {"0", "308", "14", "1696", "0"}},
        {"membar.gl", "mp-L1+membar.gl", {"0", "187", "0", "0", "0"}},
        {"membar.sys", "mp-L1+membar.sys", {"0", "162", "0", "0", "0"}},
    };

    for (const auto &row : rows) {
        benchutil::sweepRows(table, row.label,
                             benchutil::libraryTest(row.test), chips,
                             row.paper);
    }
    table.print(std::cout);
    return 0;
}
