#include "scenario/catalog.h"

#include "common/log.h"
#include "litmus/library.h"

namespace gpulitmus::scenario {

using litmus::TestBuilder;

namespace {

std::string
fenceSuffix(bool fenced)
{
    return fenced ? "+fences" : "";
}

/** The (+) fence of a fenced variant, as thread text. */
std::string
fence(bool fenced)
{
    return fenced ? "membar.gl;" : "";
}

/** A paper-library test restated as a scenario: same program, renamed,
 * its outcome now the forbidden bug. */
litmus::Test
forbidden(litmus::Test test, const std::string &name)
{
    test.name = name;
    test.quantifier = litmus::Quantifier::NotExists;
    return test;
}

} // anonymous namespace

litmus::Test
casSpinlock(bool fenced)
{
    // cas-sl (Fig. 9), which test_cuda pins against
    // cuda::distillCasSpinLock.
    return forbidden(litmus::paperlib::casSl(fenced),
                     "cas_spinlock" + fenceSuffix(fenced));
}

litmus::Test
spinlockDotProduct(int threads, bool fenced)
{
    if (threads < 2 || threads > 6)
        fatal("spinlock_dot_product supports 2..6 threads, got %d",
              threads);

    TestBuilder b("spinlock_dot_product+t" + std::to_string(threads) +
                  fenceSuffix(fenced));
    b.global("sum", 0).global("m", 0);
    int expected = 0;
    for (int t = 1; t <= threads; ++t) {
        expected += t;
        // while (CAS != 0); critical section; release. The fences
        // are Fig. 2 lines 3 and 5 (+).
        b.thread("LOCK: atom.cas r0,[m],0,1; setp.ne p0,r0,0;"
                 "@p0 bra LOCK;" +
                 fence(fenced) + "ld.cg r1,[sum]; add r2,r1," +
                 std::to_string(t) + "; st.cg [sum],r2;" +
                 fence(fenced) + "atom.exch r3,[m],0");
    }
    return b.notExists("~(sum=" + std::to_string(expected) + ")")
        .build();
}

litmus::Test
workStealingDeque(bool fenced)
{
    // dlb-mp (Fig. 7), which test_cuda pins against
    // cuda::distillDequeMp.
    return forbidden(litmus::paperlib::dlbMp(fenced),
                     "work_stealing_deque" + fenceSuffix(fenced));
}

litmus::Test
ticketLock(bool fenced)
{
    TestBuilder b("ticket_lock" + fenceSuffix(fenced));
    b.global("ticket", 0).global("serving", 0).global("sum", 0);
    for (int t = 1; t <= 2; ++t) {
        // Draw a ticket, spin until served, add to the sum in the
        // critical section, serve the next ticket.
        b.thread("atom.inc r0,[ticket];"
                 "SPIN: ld.cg r1,[serving]; setp.ne p0,r1,r0;"
                 "@p0 bra SPIN;" +
                 fence(fenced) + "ld.cg r2,[sum]; add r3,r2," +
                 std::to_string(t) + "; st.cg [sum],r3;" +
                 fence(fenced) + "add r4,r0,1; st.cg [serving],r4");
    }
    return b.notExists("~(sum=3)").build();
}

litmus::Test
producerConsumerRing(bool fenced)
{
    // The producer fills the slot and publishes the head; the
    // consumer waits for the head, then reads the slot.
    return TestBuilder("producer_consumer_ring" + fenceSuffix(fenced))
        .global("slot", 0)
        .global("head", 0)
        .thread("st.cg [slot],1;" + fence(fenced) +
                "st.volatile [head],1")
        .thread("SPIN: ld.volatile r0,[head]; setp.eq p0,r0,0;"
                "@p0 bra SPIN;" +
                fence(fenced) + "ld.cg r1,[slot]")
        .notExists("1:r1=0")
        .build();
}

litmus::Test
flagBarrier(bool fenced)
{
    // Write my data, raise my flag, wait for the other's flag, read
    // their data.
    auto side = [&](const std::string &mine, const std::string &my_flag,
                    const std::string &other_flag,
                    const std::string &theirs) {
        return "st.cg [" + mine + "],1;" + fence(fenced) + "st.cg [" +
               my_flag + "],1; SPIN: ld.cg r0,[" + other_flag +
               "]; setp.eq p0,r0,0; @p0 bra SPIN;" + fence(fenced) +
               "ld.cg r1,[" + theirs + "]";
    };
    return TestBuilder("flag_barrier" + fenceSuffix(fenced))
        .global("x0", 0)
        .global("x1", 0)
        .global("f0", 0)
        .global("f1", 0)
        .thread(side("x0", "f0", "f1", "x1"))
        .thread(side("x1", "f1", "f0", "x0"))
        .notExists("0:r1=0 \\/ 1:r1=0")
        .build();
}

litmus::Test
seqlock(bool fenced)
{
    // The writer makes the sequence odd, writes both words, makes it
    // even; the reader samples it around its reads.
    return TestBuilder("seqlock" + fenceSuffix(fenced))
        .global("s", 0)
        .global("d1", 0)
        .global("d2", 0)
        .thread("st.cg [s],1;" + fence(fenced) +
                "st.cg [d1],1; st.cg [d2],1;" + fence(fenced) +
                "st.cg [s],2")
        .thread("ld.cg r0,[s];" + fence(fenced) +
                "ld.cg r1,[d1]; ld.cg r2,[d2];" + fence(fenced) +
                "ld.cg r3,[s]")
        // A stable, even sequence (2 before and after) promises a
        // complete snapshot; torn data under it is the seqlock bug.
        .notExists("(1:r0=2 /\\ 1:r3=2) /\\ (1:r1=0 \\/ 1:r2=0)")
        .build();
}

} // namespace gpulitmus::scenario
