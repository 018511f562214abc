/**
 * @file
 * Tests for the CUDA layer: the Tab. 5 mapping, the distilled
 * case-study tests (which must agree with the hand-written library
 * versions), and the application clients (registry scenarios).
 */

#include <gtest/gtest.h>

#include "cuda/mapping.h"
#include "cuda/snippets.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "scenario/catalog.h"

namespace gpulitmus::cuda {
namespace {

TEST(Mapping, Table5Rows)
{
    auto table = mappingTable();
    ASSERT_EQ(table.size(), 10u);
    auto find = [&](const std::string &cuda) -> std::string {
        for (const auto &e : table) {
            if (e.cuda == cuda)
                return e.ptx;
        }
        return "";
    };
    EXPECT_EQ(find("atomicCAS"), "atom.cas");
    EXPECT_EQ(find("atomicExch"), "atom.exch");
    EXPECT_EQ(find("__threadfence"), "membar.gl");
    EXPECT_EQ(find("__threadfence_block"), "membar.cta");
    EXPECT_EQ(find("atomicAdd(...,1)"), "atom.inc");
    EXPECT_EQ(find("store to global int"), "st.cg");
    EXPECT_EQ(find("load from global int"), "ld.cg");
    EXPECT_EQ(find("store to volatile int"), "st.volatile");
    EXPECT_EQ(find("load from volatile int"), "ld.volatile");
}

TEST(Mapping, TranslateProducesTab5Opcodes)
{
    using ptx::Opcode;
    EXPECT_EQ(translate(CudaOp::AtomicCas, "r0", "m",
                        ptx::Operand::makeImm(0),
                        ptx::Operand::makeImm(1))
                  .op,
              Opcode::AtomCas);
    EXPECT_EQ(translate(CudaOp::Threadfence).scope, ptx::Scope::Gl);
    EXPECT_EQ(translate(CudaOp::ThreadfenceBlock).scope,
              ptx::Scope::Cta);
    auto store = translate(CudaOp::GlobalStore, "", "x",
                           ptx::Operand::makeImm(1));
    EXPECT_EQ(store.op, Opcode::St);
    EXPECT_EQ(store.cacheOp, ptx::CacheOp::Cg);
    auto vload = translate(CudaOp::VolatileLoad, "r1", "t");
    EXPECT_TRUE(vload.isVolatile);
}

/** The distilled tests must match the hand-written library versions
 * instruction for instruction. */
void
expectSameProgram(const litmus::Test &a, const litmus::Test &b)
{
    ASSERT_EQ(a.program.numThreads(), b.program.numThreads());
    for (int t = 0; t < a.program.numThreads(); ++t) {
        const auto &ia = a.program.threads[t].instrs;
        const auto &ib = b.program.threads[t].instrs;
        ASSERT_EQ(ia.size(), ib.size()) << a.name << " T" << t;
        for (size_t i = 0; i < ia.size(); ++i)
            EXPECT_EQ(ia[i].str(), ib[i].str())
                << a.name << " T" << t << " instr " << i;
    }
    EXPECT_EQ(a.condition.str(), b.condition.str());
    EXPECT_EQ(a.scopeTree, b.scopeTree);
}

TEST(Snippets, CasSlMatchesLibrary)
{
    expectSameProgram(distillCasSpinLock(false),
                      litmus::paperlib::casSl(false));
    expectSameProgram(distillCasSpinLock(true),
                      litmus::paperlib::casSl(true));
}

TEST(Snippets, DlbMpMatchesLibrary)
{
    expectSameProgram(distillDequeMp(false),
                      litmus::paperlib::dlbMp(false));
    expectSameProgram(distillDequeMp(true),
                      litmus::paperlib::dlbMp(true));
}

TEST(Snippets, DlbLbMatchesLibrary)
{
    expectSameProgram(distillDequeLb(false),
                      litmus::paperlib::dlbLb(false));
    expectSameProgram(distillDequeLb(true),
                      litmus::paperlib::dlbLb(true));
}

TEST(Snippets, SlFutureMatchesLibrary)
{
    expectSameProgram(distillHeYuLock(false),
                      litmus::paperlib::slFuture(false));
    expectSameProgram(distillHeYuLock(true),
                      litmus::paperlib::slFuture(true));
}

TEST(Snippets, SourcesMentionTheFences)
{
    EXPECT_EQ(casSpinLockSource(false).find("__threadfence"),
              std::string::npos);
    EXPECT_NE(casSpinLockSource(true).find("__threadfence"),
              std::string::npos);
    EXPECT_NE(heYuLockSource(false).find("*lockAddr = 0"),
              std::string::npos);
    EXPECT_NE(heYuLockSource(true).find("atomicExch"),
              std::string::npos);
}

// The clients are registry scenarios now: the "wrong result" is the
// test's forbidden condition, so the observation count of a plain
// harness run IS the wrong-result count (scenario/catalog.h). The
// exact (mc) verdicts for these scenarios live in test_scenario.cc.

/** runJob of scenario `test` on `chip` for `iterations` runs. */
harness::JobResult
runApp(const char *chip, const litmus::Test &test, uint64_t iterations)
{
    harness::Job job;
    job.chip = sim::chip(chip);
    job.test = test;
    job.iterations = iterations;
    job.maxMicroSteps = 20000; // spin loops need headroom
    return harness::runJob(std::move(job));
}

TEST(Apps, DotProductWrongWithoutFences)
{
    harness::JobResult buggy =
        runApp("TesC", scenario::spinlockDotProduct(3, false), 4000);
    EXPECT_GT(buggy.hist.observed(), 0u);
    EXPECT_LT(buggy.hist.observed(), buggy.hist.total()); // mostly right
}

TEST(Apps, DotProductCorrectWithFences)
{
    EXPECT_EQ(runApp("TesC", scenario::spinlockDotProduct(3, true), 4000)
                  .hist.observed(),
              0u);
}

TEST(Apps, DotProductCorrectOnMaxwellEitherWay)
{
    EXPECT_EQ(runApp("GTX7", scenario::spinlockDotProduct(3, false), 3000)
                  .hist.observed(),
              0u);
}

TEST(Apps, WorkStealingLosesTasksWithoutFences)
{
    EXPECT_GT(runApp("Titan", scenario::workStealingDeque(false), 30000)
                  .hist.observed(),
              0u);
    EXPECT_EQ(runApp("Titan", scenario::workStealingDeque(true), 10000)
                  .hist.observed(),
              0u);
}

} // namespace
} // namespace gpulitmus::cuda
