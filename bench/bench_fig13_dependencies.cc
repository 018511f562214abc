/**
 * @file
 * Regenerates Fig. 13 (Sec. 4.5): manufacturing false dependencies
 * that survive ptxas -O3.
 *
 * Scheme (a) — xor r2,r1,r1 — is provably zero intra-thread, so -O3
 * removes the whole address-computation chain and with it the
 * dependency; scheme (b) — and r2,r1,0x80000000 — would need an
 * inter-thread analysis to prove zero, so it survives. We show the
 * SASS for both, then run an lb test with each dependency flavour:
 * with (a) the compiled test reorders (lb observed / model allows);
 * with (b) the dependency forbids lb.
 */

#include "bench_util.h"
#include "cat/models.h"
#include "model/checker.h"
#include "opt/optcheck.h"
#include "opt/ptxas.h"

using namespace gpulitmus;

namespace {

litmus::Test
lbWithDep(bool xor_scheme)
{
    std::string dep_a, dep_b;
    auto chain = [&](const std::string &src) {
        if (xor_scheme)
            return "xor.b32 r2," + src + "," + src + ";";
        return "and.b32 r2," + src + ",0x80000000;";
    };
    dep_a = chain("r1");
    dep_b = chain("r1");
    std::string tail = "cvt.u64.u32 r3,r2; add.u64 r4,r4,r3;";
    return litmus::TestBuilder(xor_scheme ? "lb+deps-xor"
                                          : "lb+deps-and")
        .global("x", 0)
        .global("y", 0)
        .regLoc(0, "r4", "y")
        .regLoc(1, "r4", "x")
        .thread("ld.cg r1,[x];" + dep_a + tail + "st.cg [r4],1")
        .thread("ld.cg r1,[y];" + dep_b + tail + "st.cg [r4],1")
        .interCta()
        .exists("0:r1=1 /\\ 1:r1=1")
        .build();
}

} // namespace

int
main()
{
    benchutil::printHeader(
        "Fig. 13 - manufacturing dependencies that survive -O3",
        "load-to-store address dependencies via (a) xor-with-self"
        " (optimised away) and (b) and-with-high-bit (kept)");

    opt::PtxasOptions o3;
    o3.optLevel = 3;

    for (bool xor_scheme : {true, false}) {
        litmus::Test test = lbWithDep(xor_scheme);
        std::cout << "\n=== " << test.name << " ===\n";
        opt::SassProgram sass = opt::assemble(test, o3);
        std::cout << sass.disassemble();
        auto check = opt::optcheck(sass);
        std::cout << check.str();

        litmus::Test compiled = opt::sassToTest(test, sass);
        model::Checker checker(cat::models::ptx());
        bool allowed = checker.check(compiled).conditionSatisfiable;
        serve::Plan plan;
        auto results = benchutil::run(
            benchutil::request("sweep", {benchutil::inCodeTest(compiled)},
                               {"Titan"}),
            plan);
        uint64_t obs = results[0].observedPer100k;
        std::cout << "compiled test: lb outcome "
                  << (allowed ? "ALLOWED" : "FORBIDDEN")
                  << " by the PTX model; observed " << obs
                  << "/100k on simulated Titan\n";
        std::cout << "expected: "
                  << (xor_scheme
                          ? "dependency removed -> allowed, observed"
                          : "dependency kept -> forbidden, 0")
                  << "\n";
    }
    return 0;
}
