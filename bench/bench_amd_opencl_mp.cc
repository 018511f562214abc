/**
 * @file
 * Regenerates the AMD OpenCL mp experiment of Sec. 3.1.2: the classic
 * mp test, threads in distinct work-groups, global memory, with and
 * without OpenCL global fences between the accesses.
 *
 * Without fences both AMD chips are weak (GCN 1.0: 2956, TeraScale 2:
 * 9327 per 100k). With fences TeraScale 2 is silent, but GCN 1.0
 * stays weak: the compiler removes the fence between the loads.
 */

#include "bench_util.h"
#include "litmus/library.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Sec. 3.1.2 - OpenCL mp on AMD",
        "mem_fence(CLK_GLOBAL_MEM_FENCE) maps to a global fence;"
        " threads in distinct work-groups");

    std::vector<sim::ChipProfile> chips = {sim::chip("HD6570"),
                                           sim::chip("HD7970")};

    Table table;
    table.header({"variant", "HD6570", "HD7970"});
    benchutil::sweepRows(table, "mp", benchutil::libraryTest("mp"),
                         chips, {"9327", "2956"});
    serve::Plan fenced = benchutil::sweepRows(
        table, "mp+fences",
        benchutil::inCodeTest(litmus::paperlib::mp(ptx::Scope::Gl)),
        chips, {"0", "observed (fence removed)"});
    table.print(std::cout);

    benchutil::printCompileNotes(fenced, "HD7970");
    std::cout << "(It is unclear from the OpenCL specification"
                 " whether this transformation is legitimate; the"
                 " paper reported it to AMD.)\n";
    return 0;
}
