/**
 * @file
 * Regenerates Tab. 2: the summary of the ten correctness issues the
 * study revealed, each re-demonstrated by running its litmus test (or
 * compile check) on the affected simulated chips.
 */

#include "bench_util.h"
#include "litmus/library.h"
#include "opt/amd.h"
#include "opt/optcheck.h"
#include "opt/ptxas.h"

using namespace gpulitmus;

namespace {

/** One evidence cell: paper-library test `name` on `chip` at column
 * 16, as a one-cell sweep on the shared engine (which dedupes cells
 * the table re-queries). AMD chips run the compiled test. */
uint64_t
obs(const char *chip, const std::string &name)
{
    serve::Plan plan;
    auto results = benchutil::run(
        benchutil::request("sweep", {benchutil::libraryTest(name)},
                           {sim::chip(chip)}),
        plan);
    return results.front().observedPer100k;
}

} // namespace

int
main()
{
    benchutil::printHeader("Tab. 2 - summary of the issues revealed"
                           " by the study",
                           "each issue re-demonstrated on the"
                           " simulated chips");

    Table table;
    table.header({"affected", "litmus test", "evidence (sim)",
                  "comment"});
    namespace pl = litmus::paperlib;

    table.row({"Nvidia Fermi/Kepler", "coRR",
               "TesC " + std::to_string(obs("TesC", "coRR")) +
                   "/100k",
               "sparks debate for CPUs (Sec. 3.1.1)"});

    table.row(
        {"Fermi architecture", "mp-L1",
         "TesC membar.sys " +
             std::to_string(obs("TesC", "mp-L1+membar.sys")) +
             "/100k",
         "fences do not restore orderings (Sec. 3.1.2)"});

    table.row(
        {"Fermi architecture", "coRR-L2-L1",
         "TesC membar.sys " +
             std::to_string(obs("TesC", "coRR-L2-L1+membar.sys")) +
             "/100k",
         "fences do not restore orderings (Sec. 3.1.2)"});

    table.row({"PTX ISA", "mp-volatile",
               "GTX5 " + std::to_string(obs("GTX5", "mp-volatile")) +
                   "/100k",
               "volatile documentation disagrees with testing"});

    table.row({"GPU Computing Gems", "dlb-mp",
               "Titan " + std::to_string(obs("Titan", "dlb-mp")) +
                   "/100k",
               "fenceless deque allows items to be skipped"});

    table.row({"GPU Computing Gems", "dlb-lb",
               "Titan " + std::to_string(obs("Titan", "dlb-lb")) +
                   "/100k",
               "fenceless deque allows items to be skipped"});

    table.row({"CUDA by Example", "cas-sl",
               "Titan " + std::to_string(obs("Titan", "cas-sl")) +
                   "/100k",
               "fenceless lock allows stale values to be read"});

    table.row({"Stuart-Owens lock", "exch-sl",
               "HD7970 " + std::to_string(obs("HD7970", "cas-sl")) +
                   "/100k",
               "fenceless lock allows stale values to be read"});

    table.row({"He-Yu lock", "sl-future",
               "TesC " + std::to_string(obs("TesC", "sl-future")) +
                   "/100k",
               "lock allows future values to be read"});

    // Compiler issues.
    {
        opt::PtxasOptions opts;
        opts.optLevel = 3;
        opts.sdkVersion = "5.5";
        opts.targetMaxwell = true;
        // The Sec. 4.4 bug reorders volatile loads, so the reader of
        // coRR loads with ld.volatile here.
        litmus::Test corr_volatile =
            litmus::TestBuilder("coRR-volatile")
                .global("x", 0)
                .thread("ld.volatile r1,[x]; ld.volatile r2,[x]")
                .intraCta()
                .exists("0:r1=1 /\\ 0:r2=0")
                .build();
        auto sass = opt::assemble(corr_volatile, opts);
        auto check = opt::optcheck(sass);
        table.row({"CUDA 5.5", "coRR",
                   check.ok ? "optcheck OK (unexpected)"
                            : "optcheck flags reordering",
                   "compiler reorders volatile loads (Sec. 4.4)"});
    }
    {
        auto compiled = opt::amdCompile(pl::mp(ptx::Scope::Gl),
                                        sim::chip("HD7970"));
        table.row({"AMD GCN 1.0", "mp",
                   compiled.quirks.empty()
                       ? "no quirk (unexpected)"
                       : "compiler removes fence between loads",
                   "Sec. 3.1.2; reported to AMD"});
    }
    {
        auto compiled = opt::amdCompile(pl::dlbLb(false),
                                        sim::chip("HD6570"));
        table.row({"AMD TeraScale 2", "dlb-lb",
                   compiled.miscompiled
                       ? "compiler reorders load and CAS"
                       : "no quirk (unexpected)",
                   "Sec. 3.2.1; reported to AMD"});
    }

    table.print(std::cout);
    return 0;
}
