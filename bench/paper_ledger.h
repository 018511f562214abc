/**
 * @file
 * The paper ledger: every cell of the paper's result tables and
 * figures as a claim, and the one evaluation bench_paper renders and
 * tests/test_paper_ledger.cc checks.
 *
 * A Row is one test on some targets (chips; Sec. 6 adds model ids,
 * Tab. 2 the CUDA 5.5 compiler) at some incantation columns; its
 * cells, target outermost, hold what the paper printed. A number
 * claims "observed" when > 0 and "not observed" when 0; text cells
 * name the other claims. A cell the simulator does not reproduce is
 * marked divergent, with the reason.
 */

#ifndef GPULITMUS_PAPER_LEDGER_H
#define GPULITMUS_PAPER_LEDGER_H

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/backend.h"
#include "litmus/library.h"
#include "opt/amd.h"
#include "opt/optcheck.h"
#include "opt/ptxas.h"
#include "scenario/registry.h"
#include "serve/protocol.h"
#include "sim/chip.h"

namespace gpulitmus::ledger {

/** What a paper cell claims about its (target, column). */
enum class Claim
{
    Observed,
    NotObserved,
    Miscompiled,
    ModelAllows,
    ModelForbids,
    Quirk,
};

/** One cell as the paper prints it. */
struct Paper
{
    /** An observation count per 100k; rows list them bare. */
    Paper(uint64_t count)
        : claim(count > 0 ? Claim::Observed : Claim::NotObserved),
          text(std::to_string(count))
    {
    }
    Paper(Claim c, std::string t) : claim(c), text(std::move(t)) {}

    Claim claim;
    std::string text; ///< what the paper's row prints
};

inline const Paper kNa{Claim::Miscompiled, "n/a"};
inline const Paper kAllowed{Claim::ModelAllows, "allowed"};
inline const Paper kForbidden{Claim::ModelForbids, "forbidden"};

/** A compiler quirk, in the words the paper (or Tab. 2) uses. */
inline Paper
quirk(std::string text)
{
    return {Claim::Quirk, std::move(text)};
}

/** Tab. 2's compiler target: ptxas -O3 of CUDA 5.5 for Maxwell
 * (sm_50), the configuration that reorders volatile loads (Sec. 4.4). */
inline const std::string kCuda55 = "CUDA 5.5";

struct Row
{
    std::string label;
    serve::TestSpec test;
    /** Chip short names, then model ids or kCuda55. */
    std::vector<std::string> targets;
    std::vector<int> columns;
    /** One per cell: targets x columns, target outermost. */
    std::vector<Paper> paper;
    /** Cells the simulator does not reproduce: cell -> reason. */
    std::map<size_t, std::string> divergent;
    /** Tab. 2 only: the columns around the evidence cell, and what
     * qualifies the test in it ("membar.sys"). */
    std::string affected, detail, comment;

    size_t
    cell(size_t target, size_t column) const
    {
        return target * columns.size() + column;
    }

    Row &&
    diverges(size_t cell, std::string reason) &&
    {
        divergent.emplace(cell, std::move(reason));
        return std::move(*this);
    }
};

/** A test reference as the wire reads a bare string: a scenario spec
 * by its "scenario:" prefix, else a paper-library id. */
inline serve::TestSpec
ref(const std::string &id)
{
    if (scenario::isSpec(id))
        return {"", "", id};
    return {id, "", ""};
}

inline Row
row(std::string label, serve::TestSpec test,
    std::vector<std::string> targets, std::vector<Paper> paper,
    std::vector<int> columns = {16})
{
    Row r;
    r.label = std::move(label);
    r.test = std::move(test);
    r.targets = std::move(targets);
    r.columns = std::move(columns);
    r.paper = std::move(paper);
    return r;
}

/** A Tab. 2 row: one evidence cell, `test` on `target`. */
inline Row
summary(std::string affected, std::string label, serve::TestSpec test,
        std::string target, Paper paper, std::string comment,
        std::string detail = "")
{
    Row r = row(std::move(label), std::move(test), {std::move(target)},
                {std::move(paper)});
    r.affected = std::move(affected);
    r.detail = std::move(detail);
    r.comment = std::move(comment);
    return r;
}

/** How a table prints: chips across (the figures), the 16 incantation
 * columns across with one sub-table per chip (Tab. 6), or one evidence
 * cell per row (Tab. 2). */
enum class Layout
{
    Grid,
    Incantations,
    Summary,
};

struct Table
{
    std::string id;      ///< "Fig. 3"
    std::string caption; ///< the title after the id
    Layout layout;
    std::string corner; ///< the header's first cell
    std::vector<Row> rows;
    std::string footer; ///< printed after the table and its notes
};

/** The ledger, in print order. */
inline const std::vector<Table> &
tables()
{
    static const std::vector<Table> ledger = [] {
        const std::vector<std::string> nvidia = {"GTX5", "TesC", "GTX6",
                                                 "Titan", "GTX7"};
        std::vector<std::string> all = nvidia;
        all.push_back("HD6570");
        all.push_back("HD7970");
        std::vector<int> every_column;
        for (int c = 1; c <= 16; ++c)
            every_column.push_back(c);
        namespace pl = litmus::paperlib;
        // Tests built in code travel as inline source.
        const serve::TestSpec mp_fenced =
            benchutil::inCodeTest(pl::mp(ptx::Scope::Gl));
        const serve::TestSpec lb_membar_ctas =
            benchutil::inCodeTest(pl::lbMembarCtas());
        // The Sec. 4.4 bug reorders volatile loads, so Tab. 2's CUDA
        // 5.5 coRR reader loads with ld.volatile.
        const serve::TestSpec corr_volatile = benchutil::inCodeTest(
            litmus::TestBuilder("coRR-volatile")
                .global("x", 0)
                .thread("ld.volatile r1,[x]; ld.volatile r2,[x]")
                .intraCta()
                .exists("0:r1=1 /\\ 0:r2=0")
                .build());
        // sb on HD7970 is reachable at every column (mc) and about
        // 1/100k in the sampler, so which columns show a 1 or a 2 is
        // sampling noise, the paper's and the simulator's alike.
        const std::string rare_sb =
            "sb is about 1/100k here; which columns show it is noise";

        return std::vector<Table>{
            {"Fig. 1", "PTX test for coherent reads (coRR)",
             Layout::Grid, "obs/100k",
             {row("coRR", ref("coRR"), all,
                  {11642, 8879, 9599, 9787, 0, 0, 0})},
             ""},
            {"Fig. 3", "PTX mp with L1 cache operators (mp-L1)",
             Layout::Grid, "fence",
             {row("no-op", ref("mp-L1"), nvidia,
                  {4979, 10581, 3635, 6011, 3}),
              row("membar.cta", ref("mp-L1+membar.cta"), nvidia,
                  {0, 308, 14, 1696, 0}),
              row("membar.gl", ref("mp-L1+membar.gl"), nvidia,
                  {0, 187, 0, 0, 0}),
              row("membar.sys", ref("mp-L1+membar.sys"), nvidia,
                  {0, 162, 0, 0, 0})},
             ""},
            {"Fig. 4", "PTX coRR mixing cache operators (coRR-L2-L1)",
             Layout::Grid, "fence",
             {row("no-op", ref("coRR-L2-L1"), nvidia,
                  {2556, 2982, 2, 141, 0})
                  .diverges(2, "mc reaches it on GTX6, but the sampler"
                               " sees it less than once per 100k"),
              row("membar.cta", ref("coRR-L2-L1+membar.cta"), nvidia,
                  {1934, 2180, 0, 0, 0})
                  .diverges(3, "one stale L1 hit in 100k; mc reaches it,"
                               " the paper's runs saw none"),
              row("membar.gl", ref("coRR-L2-L1+membar.gl"), nvidia,
                  {0, 1496, 0, 0, 0}),
              row("membar.sys", ref("coRR-L2-L1+membar.sys"), nvidia,
                  {0, 1428, 0, 0, 0})},
             ""},
            {"Fig. 5", "PTX mp with volatiles (mp-volatile)",
             Layout::Grid, "obs/100k",
             {row("mp-volatile", ref("mp-volatile"), nvidia,
                  {6301, 4977, 2753, 2188, 0})},
             ""},
            {"Sec. 3.1.2", "OpenCL mp on AMD",
             Layout::Grid, "variant",
             {row("mp", ref("mp"), {"HD6570", "HD7970"}, {9327, 2956}),
              row("mp+fences", mp_fenced, {"HD6570", "HD7970"},
                  {0, quirk("observed (fence removed)")})},
             "(It is unclear from the OpenCL specification whether this"
             " transformation is legitimate; the paper reported it to"
             " AMD.)\n"},
            // Figs. 7 and 9 run registry scenarios whose forbidden
            // condition is the figure's bug: observed counts lost tasks
            // and stale lock reads.
            {"Fig. 7", "PTX mp from load-balancing (dlb-mp)",
             Layout::Grid, "variant",
             {row("dlb-mp", ref("scenario:work_stealing_deque"), all,
                  {0, 4, 36, 65, 0, 0, 0}),
              row("dlb-mp+fences",
                  ref("scenario:work_stealing_deque,fenced=1"), all,
                  {0, 0, 0, 0, 0, 0, 0})},
             ""},
            {"Fig. 8", "PTX lb from load-balancing (dlb-lb)",
             Layout::Grid, "variant",
             {row("dlb-lb", ref("dlb-lb"), all,
                  {0, 750, 399, 2292, 0, kNa, 13591}),
              row("dlb-lb+fences", ref("dlb-lb+fences"), all,
                  {0, 0, 0, 0, 0, kNa, 0})
                  .diverges(5, "the TeraScale 2 compiler reorders a load"
                               " only past an adjacent CAS; the fence"
                               " keeps them apart, so this test compiles"
                               " and runs")},
             ""},
            {"Fig. 9", "PTX compare-and-swap spin lock (cas-sl)",
             Layout::Grid, "variant",
             {row("cas-sl", ref("scenario:cas_spinlock"), all,
                  {0, 47, 43, 512, 0, 508, 748}),
              row("cas-sl+fences", ref("scenario:cas_spinlock,fenced=1"),
                  all, {0, 0, 0, 0, 0, 0, 0})},
             ""},
            // No AMD columns: the OpenCL compiler inserts the fences
            // (Sec. 2.3).
            {"Fig. 11", "PTX spin lock future value test (sl-future)",
             Layout::Grid, "variant",
             {row("sl-future", ref("sl-future"), nvidia,
                  {0, 99, 41, 58, 0}),
              row("sl-future+fixed", ref("sl-future+fixed"), nvidia,
                  {0, 0, 0, 0, 0})},
             ""},
            // Column encoding (reconstructed from the paper's
            // comparisons of columns 5/10/12/15/16): column-1 bits =
            // rand(1) sync(2) bank(4) stress(8).
            {"Tab. 6", "observations for combinations of incantations",
             Layout::Incantations, "test",
             {row("coRR (intra-CTA)", ref("coRR"), {"Titan"},
                  {0, 0, 0, 0, 0, 1235, 0, 9774, 161, 118, 847, 362, 632,
                   3384, 3993, 9985},
                  every_column),
              row("lb (inter-CTA)", ref("lb"), {"Titan"},
                  {0, 0, 0, 0, 0, 0, 0, 0, 181, 1067, 1555, 2247, 4, 37,
                   83, 486},
                  every_column),
              row("mp (inter-CTA)", ref("mp"), {"Titan"},
                  {0, 0, 0, 0, 0, 621, 0, 2921, 315, 1128, 2372, 4347, 7,
                   94, 442, 2888},
                  every_column),
              row("sb (inter-CTA)", ref("sb"), {"Titan"},
                  {0, 0, 0, 0, 0, 0, 0, 0, 462, 1403, 3308, 6673, 3, 50,
                   88, 749},
                  every_column),
              row("coRR (intra-CTA)", ref("coRR"), {"HD7970"},
                  {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
                  every_column),
              row("lb (inter-CTA)", ref("lb"), {"HD7970"},
                  {10959, 8979, 31895, 29092, 13510, 12729, 29779, 26737,
                   5094, 9360, 37624, 38664, 5321, 10054, 32796, 34196},
                  every_column),
              row("mp (inter-CTA)", ref("mp"), {"HD7970"},
                  {212, 31, 243, 158, 277, 46, 318, 247, 473, 217, 1289,
                   563, 611, 339, 2542, 1628},
                  every_column),
              row("sb (inter-CTA)", ref("sb"), {"HD7970"},
                  {0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0},
                  every_column)
                  .diverges(4, rare_sb)
                  .diverges(6, rare_sb)
                  .diverges(14, rare_sb)
                  .diverges(15, rare_sb)},
             ""},
            {"Sec. 6", "unsoundness of the operational baseline model",
             Layout::Grid, "",
             {row("lb+membar.ctas", lb_membar_ctas,
                  {"GTX6", "Titan", "ptx", "baseline"},
                  {19, 586, kAllowed, kForbidden})},
             "\nThe operational baseline forbids a behaviour the"
             " (simulated) hardware exhibits: it is unsound. The PTX"
             " model of Sec. 5 allows it: sound.\n"},
            // The evidence rows' numbers are the paper's for the same
            // cell in the figure the row cites; Tab. 2 prints only the
            // simulator's.
            {"Tab. 2", "summary of the issues revealed by the study",
             Layout::Summary, "",
             {summary("Nvidia Fermi/Kepler", "coRR", ref("coRR"), "TesC",
                      8879, "sparks debate for CPUs (Sec. 3.1.1)"),
              summary("Fermi architecture", "mp-L1",
                      ref("mp-L1+membar.sys"), "TesC", 162,
                      "fences do not restore orderings (Sec. 3.1.2)",
                      "membar.sys"),
              summary("Fermi architecture", "coRR-L2-L1",
                      ref("coRR-L2-L1+membar.sys"), "TesC", 1428,
                      "fences do not restore orderings (Sec. 3.1.2)",
                      "membar.sys"),
              summary("PTX ISA", "mp-volatile", ref("mp-volatile"), "GTX5",
                      6301, "volatile documentation disagrees with testing"),
              summary("GPU Computing Gems", "dlb-mp", ref("dlb-mp"),
                      "Titan", 65,
                      "fenceless deque allows items to be skipped"),
              summary("GPU Computing Gems", "dlb-lb", ref("dlb-lb"),
                      "Titan", 2292,
                      "fenceless deque allows items to be skipped"),
              summary("CUDA by Example", "cas-sl", ref("cas-sl"), "Titan",
                      512, "fenceless lock allows stale values to be read"),
              summary("Stuart-Owens lock", "exch-sl", ref("cas-sl"),
                      "HD7970", 748,
                      "fenceless lock allows stale values to be read"),
              summary("He-Yu lock", "sl-future", ref("sl-future"), "TesC",
                      99, "lock allows future values to be read"),
              summary("CUDA 5.5", "coRR", corr_volatile, kCuda55,
                      quirk("optcheck flags reordering"),
                      "compiler reorders volatile loads (Sec. 4.4)"),
              summary("AMD GCN 1.0", "mp", mp_fenced, "HD7970",
                      quirk("compiler removes fence between loads"),
                      "Sec. 3.1.2; reported to AMD"),
              summary("AMD TeraScale 2", "dlb-lb", ref("dlb-lb"), "HD6570",
                      quirk("compiler reorders load and CAS"),
                      "Sec. 3.2.1; reported to AMD")},
             ""},
        };
    }();
    return ledger;
}

/** What the program says about one cell. */
struct Measured
{
    /** Sim observations per 100k; nullopt when the planner skipped the
     * cell as miscompiled, or the target is not a chip. */
    std::optional<uint64_t> observed;
    /** Model cells: does the model allow the condition? */
    std::optional<bool> allowed;
    /** Quirk cells: the target's compiler rewrote the test. */
    bool quirk = false;
    /** Paper-0 cells, when exact verdicts were asked for: does mc
     * reach the condition? nullopt when unexplored or bounded; a
     * search whose only caveat is spin-loop dedup counts as drained
     * (every terminating execution, mc::ExploreResult::fairComplete). */
    std::optional<bool> reachable;
};

struct RowResult
{
    std::vector<Measured> cells;    ///< parallel to Row::paper
    std::vector<std::string> notes; ///< the planner's notes
};

/** Indexed [table][row], parallel to tables(). */
using Evaluation = std::vector<std::vector<RowResult>>;

/** Does the program agree with the paper's claim on this cell? */
inline bool
holds(const Paper &paper, const Measured &m)
{
    switch (paper.claim) {
    case Claim::Observed:
        return m.observed.value_or(0) > 0;
    case Claim::NotObserved:
        return m.observed == uint64_t{0};
    case Claim::Miscompiled:
        return !m.observed;
    case Claim::ModelAllows:
        return m.allowed == true;
    case Claim::ModelForbids:
        return m.allowed == false;
    case Claim::Quirk:
        return m.quirk;
    }
    return false;
}

namespace detail {

/**
 * Plan `row` into `jobs`: its sim (and model) cells as one request
 * and, when `exact`, an explore request per column over the chips
 * whose cell there is a paper 0. A row of compiler claims only
 * (Tab. 2's compiler rows) plans nothing.
 */
inline bool
planRow(const Row &row, uint64_t iterations, bool exact,
        std::vector<harness::Job> *jobs, RowResult *out, std::string *error)
{
    if (std::all_of(row.paper.begin(), row.paper.end(),
                    [](const Paper &p) { return p.claim == Claim::Quirk; }))
        return true;
    std::vector<std::string> chips, models;
    for (const auto &target : row.targets)
        (sim::findChip(target) ? chips : models).push_back(target);
    auto plan = [&](const serve::Request &req, serve::Plan *p) {
        if (!serve::planJobs(req, p, error))
            return false;
        jobs->insert(jobs->end(), p->jobs.begin(), p->jobs.end());
        return true;
    };
    serve::Request req =
        benchutil::request(models.empty() ? "sweep" : "validate",
                           {row.test}, chips, row.columns, iterations);
    req.column = row.columns.front();
    req.models = models;
    serve::Plan main;
    if (!plan(req, &main))
        return false;
    out->notes = main.notes;

    for (size_t c = 0; exact && c < row.columns.size(); ++c) {
        std::vector<std::string> zeros;
        for (size_t t = 0; t < row.targets.size(); ++t) {
            if (row.paper[row.cell(t, c)].claim == Claim::NotObserved)
                zeros.push_back(row.targets[t]);
        }
        serve::Request explore = benchutil::request(
            "explore", {row.test}, zeros, {}, iterations);
        explore.column = row.columns[c];
        explore.models = {"none"};
        serve::Plan ignored;
        if (!zeros.empty() && !plan(explore, &ignored))
            return false;
    }
    return true;
}

/** Check `row`'s quirk cells by compiling its test: an AMD chip's
 * (simulated) OpenCL compiler notes a quirk, or kCuda55's SASS fails
 * optcheck. */
inline bool
checkQuirks(const Row &row, RowResult *out, std::string *error)
{
    std::optional<serve::LoadedTest> loaded;
    for (size_t i = 0; i < row.paper.size(); ++i) {
        if (row.paper[i].claim != Claim::Quirk)
            continue;
        if (!loaded && !(loaded = serve::resolveTest(row.test, error)))
            return false;
        const std::string &target = row.targets[i / row.columns.size()];
        if (target == kCuda55) {
            opt::PtxasOptions opts;
            opts.sdkVersion = "5.5";
            opts.targetMaxwell = true;
            out->cells[i].quirk =
                !opt::optcheck(opt::assemble(loaded->test, opts)).ok;
            continue;
        }
        out->cells[i].quirk =
            !opt::amdCompile(loaded->test, sim::chip(target)).quirks.empty();
    }
    return true;
}

/** File one result of `row`'s jobs under its cell. */
inline void
record(const Row &row, const eval::EvalResult &result, RowResult *out)
{
    const harness::Job &job = *result.job;
    const bool machine = job.isSim() || job.isMc();
    const std::string &target =
        machine ? job.chip.shortName : result.backend;
    const size_t t = static_cast<size_t>(
        std::find(row.targets.begin(), row.targets.end(), target) -
        row.targets.begin());
    if (!machine) {
        out->cells[row.cell(t, 0)].allowed =
            result.verdict->conditionSatisfiable;
        return;
    }
    const size_t c = static_cast<size_t>(
        std::find(row.columns.begin(), row.columns.end(), result.column()) -
        row.columns.begin());
    Measured &cell = out->cells[row.cell(t, c)];
    if (job.isSim()) {
        cell.observed = result.observedPer100k;
        return;
    }
    const mc::ExploreResult &x = *result.exact;
    if (!x.satisfying.empty() || x.complete || x.fairComplete)
        cell.reachable = !x.satisfying.empty();
}

} // namespace detail

/**
 * Evaluate every cell at `iterations` per sim cell. Each row is one
 * serve::Request (a sweep, or a validate when it has model columns) at
 * harness::kBaseSeed, so its cells equal `gpulitmus sweep --seed
 * 0x6c69746d7573`'s; with `exact`, each column's paper-0 cells add an
 * explore request, for mc's verdict. Every planned job runs in one
 * batch on `engine`. nullopt + `error` naming the row when a row does
 * not plan.
 */
inline std::optional<Evaluation>
evaluate(eval::Engine &engine, uint64_t iterations, bool exact,
         std::string *error)
{
    struct Span
    {
        size_t table, row, begin, end;
    };
    const std::vector<Table> &ledger = tables();
    Evaluation out(ledger.size());
    std::vector<harness::Job> jobs;
    std::vector<Span> spans;
    for (size_t t = 0; t < ledger.size(); ++t) {
        for (size_t r = 0; r < ledger[t].rows.size(); ++r) {
            const Row &row = ledger[t].rows[r];
            RowResult &result = out[t].emplace_back();
            result.cells.resize(row.paper.size());
            const size_t begin = jobs.size();
            if (!detail::planRow(row, iterations, exact, &jobs, &result,
                                 error) ||
                !detail::checkQuirks(row, &result, error)) {
                *error = ledger[t].id + " " + row.label + ": " + *error;
                return std::nullopt;
            }
            spans.push_back({t, r, begin, jobs.size()});
        }
    }
    std::vector<eval::EvalResult> results = engine.run(jobs);
    for (const Span &s : spans) {
        for (size_t i = s.begin; i < s.end; ++i)
            detail::record(ledger[s.table].rows[s.row], results[i],
                           &out[s.table][s.row]);
    }
    return out;
}

} // namespace gpulitmus::ledger

#endif // GPULITMUS_PAPER_LEDGER_H
