/**
 * @file
 * Regenerates Tab. 6: observations for all 16 combinations of the
 * four incantations (memory stress, general bank conflicts, thread
 * synchronisation, thread randomisation) on the GTX Titan and the
 * Radeon HD 7970, for coRR (intra-CTA), lb, mp and sb (inter-CTA),
 * all over global memory.
 *
 * Column encoding (reconstructed from the paper's comparisons of
 * columns 5/10/12/15/16): column-1 bits = rand(1) sync(2) bank(4)
 * stress(8).
 */

#include "bench_util.h"

using namespace gpulitmus;

namespace {

struct TestRow
{
    std::string label;
    std::string test;               // paper-library id
    std::vector<std::string> paper; // 16 values
};

void
runChip(const sim::ChipProfile &chip, const std::vector<TestRow> &rows)
{
    std::cout << "\n--- " << chip.vendor << " " << chip.chipName
              << " ---\n";
    Table table;
    std::vector<std::string> header{"test"};
    for (int col = 1; col <= 16; ++col)
        header.push_back(std::to_string(col));
    table.header(header);

    // Incantation legend rows.
    auto legend = [&](const std::string &name, int bit) {
        std::vector<std::string> row{name};
        for (int col = 1; col <= 16; ++col)
            row.push_back(((col - 1) & bit) ? "x" : "");
        table.row(row);
    };
    legend("memory stress", 8);
    legend("bank conflicts", 4);
    legend("thread sync", 2);
    legend("thread rand", 1);

    // The whole tests x 16-column grid (no columns: the planner's
    // 1..16) is one sweep request, sharded over the worker pool
    // (GPULITMUS_JOBS). Results come back in plan order: test
    // outermost, column innermost. A test the chip's compiler
    // miscompiles has no cells and prints "n/a".
    std::vector<serve::TestSpec> tests;
    for (const auto &row : rows)
        tests.push_back(benchutil::libraryTest(row.test));
    serve::Plan plan;
    auto results = benchutil::run(
        benchutil::request("sweep", tests, {chip}, {}), plan);

    size_t next = 0;
    for (const auto &row : rows) {
        const bool ran =
            next < results.size() && results[next].label() == row.test;
        std::vector<std::string> measured{row.label + " (sim)"};
        for (int col = 1; col <= 16; ++col)
            measured.push_back(
                ran ? std::to_string(results[next++].observedPer100k)
                    : "n/a");
        table.row(measured);
        std::vector<std::string> reference{row.label + " (paper)"};
        for (const auto &p : row.paper)
            reference.push_back(p);
        table.row(reference);
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    benchutil::printHeader(
        "Tab. 6 - observations for combinations of incantations",
        "16 on/off combinations of the four incantations of Sec. 4.3;"
        " all tests target global memory");

    std::vector<TestRow> titan_rows = {
        {"coRR (intra-CTA)", "coRR",
         {"0", "0", "0", "0", "0", "1235", "0", "9774", "161", "118",
          "847", "362", "632", "3384", "3993", "9985"}},
        {"lb (inter-CTA)", "lb",
         {"0", "0", "0", "0", "0", "0", "0", "0", "181", "1067",
          "1555", "2247", "4", "37", "83", "486"}},
        {"mp (inter-CTA)", "mp",
         {"0", "0", "0", "0", "0", "621", "0", "2921", "315", "1128",
          "2372", "4347", "7", "94", "442", "2888"}},
        {"sb (inter-CTA)", "sb",
         {"0", "0", "0", "0", "0", "0", "0", "0", "462", "1403",
          "3308", "6673", "3", "50", "88", "749"}},
    };
    runChip(sim::chip("Titan"), titan_rows);

    std::vector<TestRow> amd_rows = {
        {"coRR (intra-CTA)", "coRR",
         {"0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0",
          "0", "0", "0", "0"}},
        {"lb (inter-CTA)", "lb",
         {"10959", "8979", "31895", "29092", "13510", "12729",
          "29779", "26737", "5094", "9360", "37624", "38664", "5321",
          "10054", "32796", "34196"}},
        {"mp (inter-CTA)", "mp",
         {"212", "31", "243", "158", "277", "46", "318", "247", "473",
          "217", "1289", "563", "611", "339", "2542", "1628"}},
        {"sb (inter-CTA)", "sb",
         {"0", "0", "0", "0", "2", "0", "2", "0", "0", "0", "0", "0",
          "0", "0", "0", "0"}},
    };
    runChip(sim::chip("HD7970"), amd_rows);
    return 0;
}
