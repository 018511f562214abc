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

/**
 * Batches every harness query of the table into one campaign: jobs
 * are declared up front, run in parallel on the shared engine (which
 * also dedupes cells this table re-queries), then read back by index.
 */
class ObsBatch
{
  public:
    size_t
    add(const char *chip, const litmus::Test &test)
    {
        harness::Job job = harness::Job::fromConfig(
            sim::chip(chip), test, benchutil::config());
        jobs_.push_back(std::move(job));
        return jobs_.size() - 1;
    }

    void
    run()
    {
        results_ = benchutil::engine().run(jobs_);
    }

    uint64_t
    obs(size_t idx) const
    {
        return results_[idx].observedPer100k;
    }

  private:
    std::vector<harness::Job> jobs_;
    std::vector<eval::EvalResult> results_;
};

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

    ObsBatch batch;
    size_t corr = batch.add("TesC", pl::coRR());
    size_t mp_l1 = batch.add("TesC", pl::mpL1(ptx::Scope::Sys));
    size_t corr_l2_l1 =
        batch.add("TesC", pl::coRRL2L1(ptx::Scope::Sys));
    size_t mp_volatile = batch.add("GTX5", pl::mpVolatile());
    size_t dlb_mp = batch.add("Titan", pl::dlbMp(false));
    size_t dlb_lb = batch.add("Titan", pl::dlbLb(false));
    size_t cas_sl = batch.add("Titan", pl::casSl(false));
    size_t exch_sl = batch.add("HD7970", pl::casSl(false));
    size_t sl_future = batch.add("TesC", pl::slFuture(false));
    batch.run();
    auto obs = [&](size_t idx) { return batch.obs(idx); };

    table.row({"Nvidia Fermi/Kepler", "coRR",
               "TesC " + std::to_string(obs(corr)) +
                   "/100k",
               "sparks debate for CPUs (Sec. 3.1.1)"});

    table.row(
        {"Fermi architecture", "mp-L1",
         "TesC membar.sys " +
             std::to_string(obs(mp_l1)) +
             "/100k",
         "fences do not restore orderings (Sec. 3.1.2)"});

    table.row(
        {"Fermi architecture", "coRR-L2-L1",
         "TesC membar.sys " +
             std::to_string(obs(corr_l2_l1)) +
             "/100k",
         "fences do not restore orderings (Sec. 3.1.2)"});

    table.row({"PTX ISA", "mp-volatile",
               "GTX5 " + std::to_string(obs(mp_volatile)) +
                   "/100k",
               "volatile documentation disagrees with testing"});

    table.row({"GPU Computing Gems", "dlb-mp",
               "Titan " + std::to_string(obs(dlb_mp)) +
                   "/100k",
               "fenceless deque allows items to be skipped"});

    table.row({"GPU Computing Gems", "dlb-lb",
               "Titan " + std::to_string(obs(dlb_lb)) +
                   "/100k",
               "fenceless deque allows items to be skipped"});

    table.row({"CUDA by Example", "cas-sl",
               "Titan " + std::to_string(obs(cas_sl)) +
                   "/100k",
               "fenceless lock allows stale values to be read"});

    table.row({"Stuart-Owens lock", "exch-sl",
               "HD7970 " +
                   std::to_string(obs(exch_sl)) +
                   "/100k",
               "fenceless lock allows stale values to be read"});

    table.row({"He-Yu lock", "sl-future",
               "TesC " + std::to_string(obs(sl_future)) +
                   "/100k",
               "lock allows future values to be read"});

    // Compiler issues.
    {
        opt::PtxasOptions opts;
        opts.optLevel = 3;
        opts.sdkVersion = "5.5";
        opts.targetMaxwell = true;
        auto sass = opt::assemble(pl::coRR(), opts);
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
