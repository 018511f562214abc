#include "litmus/library.h"

#include "common/log.h"

namespace gpulitmus::litmus::paperlib {

using ptx::Scope;

namespace {

std::string
fenceText(FenceOpt fence)
{
    if (!fence)
        return "";
    return "membar." + ptx::toString(*fence) + ";";
}

std::string
fenceSuffix(FenceOpt fence)
{
    if (!fence)
        return "";
    return "+membar." + ptx::toString(*fence);
}

} // anonymous namespace

Test
coRR()
{
    return TestBuilder("coRR")
        .global("x", 0)
        .thread("st.cg [x],1")
        .thread("ld.cg r1,[x]; ld.cg r2,[x]")
        .intraCta()
        .exists("1:r1=1 /\\ 1:r2=0")
        .build();
}

Test
mpL1(FenceOpt fence)
{
    std::string f = fenceText(fence);
    return TestBuilder("mp-L1" + fenceSuffix(fence))
        .global("x", 0)
        .global("y", 0)
        .thread("st.cg [x],1;" + f + "st.cg [y],1")
        .thread("ld.ca r1,[y];" + f + "ld.ca r2,[x]")
        .interCta()
        .exists("1:r1=1 /\\ 1:r2=0")
        .build();
}

Test
coRRL2L1(FenceOpt fence)
{
    std::string f = fenceText(fence);
    return TestBuilder("coRR-L2-L1" + fenceSuffix(fence))
        .global("x", 0)
        .thread("st.cg [x],1")
        .thread("ld.cg r1,[x];" + f + "ld.ca r2,[x]")
        .intraCta()
        .exists("1:r1=1 /\\ 1:r2=0")
        .build();
}

Test
mpVolatile()
{
    return TestBuilder("mp-volatile")
        .shared("x", 0)
        .shared("y", 0)
        .thread("st.volatile [x],1; st.volatile [y],1")
        .thread("ld.volatile r1,[y]; ld.volatile r2,[x]")
        .intraCta()
        .exists("1:r1=1 /\\ 1:r2=0")
        .build();
}

Test
dlbMp(bool with_fences)
{
    // Fig. 7, distilled from the push/steal pair of the
    // Cederman-Tsigas deque (Fig. 6) via the Tab. 5 mapping.
    std::string t0 = "st.cg [d],1;";
    if (with_fences)
        t0 += "membar.gl;";
    t0 += "ld.volatile r2,[t]; add r2,r2,1; st.volatile [t],r2";

    std::string t1 = "ld.volatile r0,[t]; setp.eq p4,r0,0;";
    if (with_fences)
        t1 += "@!p4 membar.gl;";
    t1 += "@!p4 ld.cg r1,[d]";

    return TestBuilder(with_fences ? "dlb-mp+fences" : "dlb-mp")
        .global("t", 0)
        .global("d", 0)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("1:r0=1 /\\ 1:r1=0")
        .build();
}

Test
dlbLb(bool with_fences)
{
    // Fig. 8: T0 pops (CAS on head) then pushes (store to tasks);
    // T1 steals (load tasks then CAS head).
    std::string t0 = "atom.cas r0,[h],0,1;";
    if (with_fences)
        t0 += "membar.gl;";
    t0 += "mov r2,1; st.cg [t],r2";

    std::string t1 = "ld.cg r1,[t];";
    if (with_fences)
        t1 += "membar.gl;";
    t1 += "atom.cas r3,[h],0,1";

    return TestBuilder(with_fences ? "dlb-lb+fences" : "dlb-lb")
        .global("t", 0)
        .global("h", 0)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("0:r0=1 /\\ 1:r1=1")
        .build();
}

Test
casSl(bool with_fences)
{
    // Fig. 9: the critical-section store of the unlocking thread and
    // the guarded critical-section load of the locking thread.
    //
    // The paper predicates directly on the CAS result register (line
    // 1.3 "r1 membar.gl"); we materialise the predicate with setp so
    // the guard is a proper predicate register (same semantics: the
    // guarded instructions execute exactly when the lock was taken,
    // i.e. when r1 == 0).
    std::string t0 = "st.cg [x],1;";
    if (with_fences)
        t0 += "membar.gl;";
    t0 += "atom.exch r0,[m],0";

    std::string t1 = "atom.cas r1,[m],0,1; setp.eq p2,r1,0;";
    if (with_fences)
        t1 += "@p2 membar.gl;";
    t1 += "@p2 ld.cg r3,[x]";

    return TestBuilder(with_fences ? "cas-sl+fences" : "cas-sl")
        .global("x", 0)
        .global("m", 1)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("1:r1=0 /\\ 1:r3=0")
        .build();
}

Test
slFuture(bool fixed)
{
    // Fig. 11: can a critical section read a value written by the
    // *next* critical section? The original unlocks with a plain
    // store after the critical section (and a trailing fence, which
    // is too late); the fixed version fences before the unlock and
    // releases with an atomic exchange.
    std::string t0;
    if (fixed) {
        t0 = "ld.cg r0,[x]; membar.gl; atom.exch r1,[m],0";
    } else {
        t0 = "ld.cg r0,[x]; st.cg [m],0; membar.gl";
    }

    std::string t1 = "atom.cas r2,[m],0,1; setp.eq p1,r2,0;"
                     "@p1 mov r3,1;";
    if (fixed)
        t1 += "@p1 membar.gl;";
    t1 += "@p1 st.cg [x],1";

    return TestBuilder(fixed ? "sl-future+fixed" : "sl-future")
        .global("x", 0)
        .global("m", 1)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("0:r0=1 /\\ 1:r2=0")
        .build();
}

Test
mp(FenceOpt fence, bool inter_cta)
{
    std::string f = fenceText(fence);
    TestBuilder b("mp" + fenceSuffix(fence) +
                  (inter_cta ? "" : "+intra"));
    b.global("x", 0)
        .global("y", 0)
        .thread("st.cg [x],1;" + f + "st.cg [y],1")
        .thread("ld.cg r1,[y];" + f + "ld.cg r2,[x]");
    if (inter_cta)
        b.interCta();
    else
        b.intraCta();
    return b.exists("1:r1=1 /\\ 1:r2=0").build();
}

Test
sb(FenceOpt fence, bool inter_cta)
{
    std::string f = fenceText(fence);
    TestBuilder b("sb" + fenceSuffix(fence) +
                  (inter_cta ? "" : "+intra"));
    b.global("x", 0)
        .global("y", 0)
        .thread("st.cg [x],1;" + f + "ld.cg r2,[y]")
        .thread("st.cg [y],1;" + f + "ld.cg r2,[x]");
    if (inter_cta)
        b.interCta();
    else
        b.intraCta();
    return b.exists("0:r2=0 /\\ 1:r2=0").build();
}

Test
lb(FenceOpt fence, bool inter_cta)
{
    std::string f = fenceText(fence);
    TestBuilder b("lb" + fenceSuffix(fence) +
                  (inter_cta ? "" : "+intra"));
    b.global("x", 0)
        .global("y", 0)
        .thread("ld.cg r1,[x];" + f + "st.cg [y],1")
        .thread("ld.cg r1,[y];" + f + "st.cg [x],1");
    if (inter_cta)
        b.interCta();
    else
        b.intraCta();
    return b.exists("0:r1=1 /\\ 1:r1=1").build();
}

Test
lbMembarCtas()
{
    Test t = lb(Scope::Cta, true);
    t.name = "lb+membar.ctas";
    return t;
}

Test
mpMembarGls()
{
    Test t = mp(Scope::Gl, true);
    t.name = "mp+membar.gls";
    return t;
}

Test
sbFig12()
{
    return TestBuilder("SB-fig12")
        .shared("x", 0)
        .global("y", 0)
        .regLoc(0, "r1", "x")
        .regLoc(0, "r3", "y")
        .regLoc(1, "r1", "y")
        .regLoc(1, "r3", "x")
        .thread("mov.s32 r0,1; st.cg.s32 [r1],r0; ld.cg.s32 r2,[r3]")
        .thread("mov.s32 r0,1; st.cg.s32 [r1],r0; ld.cg.s32 r2,[r3]")
        .intraCta()
        .exists("0:r2=0 /\\ 1:r2=0")
        .build();
}

Test
lbDeps(bool xor_scheme)
{
    const std::string dep = xor_scheme ? "xor.b32 r2,r1,r1;"
                                       : "and.b32 r2,r1,0x80000000;";
    const std::string addr = "cvt.u64.u32 r3,r2; add.u64 r4,r4,r3;";
    return TestBuilder(xor_scheme ? "lb+deps-xor" : "lb+deps-and")
        .global("x", 0)
        .global("y", 0)
        .regLoc(0, "r4", "y")
        .regLoc(1, "r4", "x")
        .thread("ld.cg r1,[x];" + dep + addr + "st.cg [r4],1")
        .thread("ld.cg r1,[y];" + dep + addr + "st.cg [r4],1")
        .interCta()
        .exists("0:r1=1 /\\ 1:r1=1")
        .build();
}

Test
mpFig14()
{
    return TestBuilder("mp-fig14")
        .global("x", 0)
        .global("y", 0)
        .thread("st.cg [x],1; membar.cta; st.cg [y],1")
        .thread("ld.cg r0,[y]; membar.gl; ld.cg r2,[x]")
        .intraCta()
        .exists("1:r0=1 /\\ 1:r2=0")
        .build();
}

std::vector<NamedTest>
allTests()
{
    std::vector<NamedTest> tests;
    auto addTest = [&](std::string section, Test t) {
        tests.push_back({t.name, std::move(section), std::move(t)});
    };

    addTest("Fig. 1", coRR());
    for (FenceOpt f :
         {FenceOpt{}, FenceOpt{Scope::Cta}, FenceOpt{Scope::Gl},
          FenceOpt{Scope::Sys}}) {
        addTest("Fig. 3", mpL1(f));
        addTest("Fig. 4", coRRL2L1(f));
    }
    addTest("Fig. 5", mpVolatile());
    addTest("Fig. 7", dlbMp(false));
    addTest("Fig. 7", dlbMp(true));
    addTest("Fig. 8", dlbLb(false));
    addTest("Fig. 8", dlbLb(true));
    addTest("Fig. 9", casSl(false));
    addTest("Fig. 9", casSl(true));
    addTest("Fig. 11", slFuture(false));
    addTest("Fig. 11", slFuture(true));
    addTest("Tab. 3", mp());
    addTest("Tab. 3", sb());
    addTest("Tab. 3", lb());
    addTest("Tab. 3", mp(std::nullopt, false));
    addTest("Tab. 3", sb(std::nullopt, false));
    addTest("Tab. 3", lb(std::nullopt, false));
    addTest("Sec. 6", lbMembarCtas());
    addTest("Sec. 3.1.2", mpMembarGls());
    addTest("Fig. 12", sbFig12());
    addTest("Fig. 13", lbDeps(true));
    addTest("Fig. 13", lbDeps(false));
    addTest("Fig. 14", mpFig14());
    return tests;
}

} // namespace gpulitmus::litmus::paperlib
