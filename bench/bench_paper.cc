/**
 * @file
 * Regenerates the paper's result tables and figures from the paper
 * ledger (paper_ledger.h), each row's simulated cells above the
 * paper's. A compiler effect the paper reports (an "n/a" or a quirk
 * cell) is followed by the planner's compile notes for its chip.
 */

#include <iostream>

#include "paper_ledger.h"

using namespace gpulitmus;

namespace {

void
printHeader(const std::string &title, const std::string &what)
{
    std::cout << "=====================================================\n"
              << title << "\n"
              << what << "\n"
              << "iterations/run: " << harness::defaultIterations()
              << " (set GPULITMUS_ITERS to change); all counts are"
                 " normalised to obs/100k\n"
              << "=====================================================\n";
}

/** What the simulator (or a model) says in one cell. */
std::string
measured(const ledger::Measured &m)
{
    if (m.observed)
        return std::to_string(*m.observed);
    if (m.allowed)
        return *m.allowed ? "allowed" : "forbidden";
    return "n/a";
}

/** A Grid column heading: the chip, or the model as Sec. 6 names it. */
std::string
heading(const std::string &target)
{
    if (target == "ptx")
        return "ptx model";
    if (target == "baseline")
        return "operational baseline";
    return target;
}

/** Append the (sim) and (paper) rows of `row`. */
void
addRows(Table &table, const ledger::Row &row, const ledger::RowResult &res)
{
    std::vector<std::string> sim{row.label + " (sim)"};
    std::vector<std::string> paper{row.label + " (paper)"};
    for (size_t i = 0; i < row.paper.size(); ++i) {
        sim.push_back(measured(res.cells[i]));
        paper.push_back(row.paper[i].text);
    }
    table.row(sim);
    table.row(paper);
}

void
printGrid(const ledger::Table &t, const std::vector<ledger::RowResult> &rs)
{
    Table table;
    std::vector<std::string> header{t.corner};
    for (const auto &target : t.rows.front().targets)
        header.push_back(heading(target));
    table.header(header);
    for (size_t r = 0; r < t.rows.size(); ++r)
        addRows(table, t.rows[r], rs[r]);
    table.print(std::cout);

    // The evidence for the compiler effects the paper reports.
    for (size_t r = 0; r < t.rows.size(); ++r) {
        const ledger::Row &row = t.rows[r];
        for (size_t i = 0; i < row.paper.size(); ++i) {
            const ledger::Claim claim = row.paper[i].claim;
            if (claim != ledger::Claim::Miscompiled &&
                claim != ledger::Claim::Quirk)
                continue;
            const std::string &chip = row.targets[i / row.columns.size()];
            const std::string prefix = "compile note (" + chip + "): ";
            std::string lines;
            for (const auto &note : rs[r].notes) {
                if (note.rfind(prefix, 0) == 0)
                    lines += "  " + note.substr(prefix.size()) + "\n";
            }
            if (!lines.empty())
                std::cout << "\n" << chip << " compile notes:\n" << lines;
        }
    }
}

/** Tab. 6: per chip, the 16 columns under the incantation legend. */
void
printIncantations(const ledger::Table &t,
                  const std::vector<ledger::RowResult> &rs)
{
    for (size_t r = 0; r < t.rows.size();) {
        const sim::ChipProfile &chip = sim::chip(t.rows[r].targets.front());
        std::cout << "\n--- " << chip.vendor << " " << chip.chipName
                  << " ---\n";
        Table table;
        std::vector<std::string> header{t.corner};
        for (int col : t.rows[r].columns)
            header.push_back(std::to_string(col));
        table.header(header);
        auto legend = [&](const std::string &name, int bit) {
            std::vector<std::string> row{name};
            for (int col : t.rows[r].columns)
                row.push_back(((col - 1) & bit) ? "x" : "");
            table.row(row);
        };
        legend("memory stress", 8);
        legend("bank conflicts", 4);
        legend("thread sync", 2);
        legend("thread rand", 1);
        for (; r < t.rows.size() &&
               t.rows[r].targets.front() == chip.shortName;
             ++r)
            addRows(table, t.rows[r], rs[r]);
        table.print(std::cout);
    }
}

/** Tab. 2: one evidence cell per issue. */
void
printSummary(const ledger::Table &t, const std::vector<ledger::RowResult> &rs)
{
    Table table;
    table.header({"affected", "litmus test", "evidence (sim)", "comment"});
    for (size_t r = 0; r < t.rows.size(); ++r) {
        const ledger::Row &row = t.rows[r];
        const ledger::Measured &m = rs[r].cells.front();
        std::string evidence;
        if (row.paper.front().claim == ledger::Claim::Quirk) {
            evidence = m.quirk ? row.paper.front().text
                               : "no quirk (unexpected)";
        } else {
            evidence = row.targets.front() +
                       (row.detail.empty() ? "" : " " + row.detail) + " " +
                       measured(m) + "/100k";
        }
        table.row({row.affected, row.label, evidence, row.comment});
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    eval::Engine engine;
    std::string error;
    auto evaluation = ledger::evaluate(engine, harness::defaultIterations(),
                                       /*exact=*/false, &error);
    if (!evaluation) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    printHeader("The paper's tables and figures"
                           " (bench/paper_ledger.h)",
                           "each row: the simulator's cells, then the"
                           " paper's");
    const std::vector<ledger::Table> &tables = ledger::tables();
    for (size_t t = 0; t < tables.size(); ++t) {
        const ledger::Table &table = tables[t];
        std::cout << "\n" << table.id << " - " << table.caption << "\n";
        switch (table.layout) {
        case ledger::Layout::Grid:
            printGrid(table, (*evaluation)[t]);
            break;
        case ledger::Layout::Incantations:
            printIncantations(table, (*evaluation)[t]);
            break;
        case ledger::Layout::Summary:
            printSummary(table, (*evaluation)[t]);
            break;
        }
        std::cout << table.footer;
    }
    return 0;
}
