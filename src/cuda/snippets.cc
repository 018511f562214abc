#include "cuda/snippets.h"

#include "cuda/mapping.h"

namespace gpulitmus::cuda {

litmus::Test
distillCasSpinLock(bool with_fences)
{
    // Fig. 9, built through Tab. 5 from Fig. 2. T0 is inside the
    // critical section and unlocks; T1 locks and reads the data.
    std::string t0 = translate(CudaOp::GlobalStore, "", "x", "1") + ";";
    if (with_fences)
        t0 += translate(CudaOp::Threadfence) + ";"; // line 5 (+)
    t0 += translate(CudaOp::AtomicExch, "r0", "m", "0");

    // "if (lockValue == 0)" -> predicated instructions (Tab. 5).
    std::string t1 =
        translate(CudaOp::AtomicCas, "r1", "m", "0", "1") + ";"; // l.2
    t1 += "setp.eq p2,r1,0;";
    if (with_fences)
        t1 += "@p2 " + translate(CudaOp::Threadfence) + ";"; // l.3 (+)
    t1 += "@p2 " + translate(CudaOp::GlobalLoad, "r3", "x");

    return litmus::TestBuilder(with_fences ? "cas-sl+fences"
                                           : "cas-sl")
        .global("x", 0)
        .global("m", 1)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("1:r1=0 /\\ 1:r3=0")
        .build();
}

litmus::Test
distillDequeMp(bool with_fences)
{
    // Fig. 7: push writes the task (line 3) then bumps the volatile
    // tail (line 5); steal reads tail (line 8) and, if non-empty,
    // reads the task (line 10).
    std::string t0 = translate(CudaOp::GlobalStore, "", "d", "1") + ";";
    if (with_fences)
        t0 += translate(CudaOp::Threadfence) + ";"; // l.4 (+)
    t0 += translate(CudaOp::VolatileLoad, "r2", "t") + ";"; // l.5
    t0 += "add r2,r2,1;";
    t0 += translate(CudaOp::VolatileStore, "", "t", "r2");

    std::string t1 =
        translate(CudaOp::VolatileLoad, "r0", "t") + ";"; // l.8
    t1 += "setp.eq p4,r0,0;";
    if (with_fences)
        t1 += "@!p4 " + translate(CudaOp::Threadfence) + ";"; // l.9 (+)
    t1 += "@!p4 " + translate(CudaOp::GlobalLoad, "r1", "d"); // l.10

    return litmus::TestBuilder(with_fences ? "dlb-mp+fences"
                                           : "dlb-mp")
        .global("t", 0)
        .global("d", 0)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("1:r0=1 /\\ 1:r1=0")
        .build();
}

litmus::Test
distillDequeLb(bool with_fences)
{
    // Fig. 8: pop's CAS on head (line 20) then push's task write
    // (line 3) against steal's task read (line 10) then CAS (line 13).
    std::string t0 =
        translate(CudaOp::AtomicCas, "r0", "h", "0", "1") + ";"; // l.20
    if (with_fences)
        t0 += translate(CudaOp::Threadfence) + ";"; // l.21 (+)
    t0 += "mov r2,1;"; // l.3
    t0 += translate(CudaOp::GlobalStore, "", "t", "r2");

    std::string t1 =
        translate(CudaOp::GlobalLoad, "r1", "t") + ";"; // l.10
    if (with_fences)
        t1 += translate(CudaOp::Threadfence) + ";"; // l.11 (+)
    t1 += translate(CudaOp::AtomicCas, "r3", "h", "0", "1"); // l.13

    return litmus::TestBuilder(with_fences ? "dlb-lb+fences"
                                           : "dlb-lb")
        .global("t", 0)
        .global("h", 0)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("0:r0=1 /\\ 1:r1=1")
        .build();
}

litmus::Test
distillHeYuLock(bool fixed)
{
    // Fig. 11 from Fig. 10: can a critical section read a value the
    // *next* critical section writes?
    std::string t0 =
        translate(CudaOp::GlobalLoad, "r0", "x") + ";"; // l.7
    if (fixed) {
        t0 += translate(CudaOp::Threadfence) + ";";          // l.8 (+)
        t0 += translate(CudaOp::AtomicExch, "r1", "m", "0"); // l.9 (+)
    } else {
        t0 += translate(CudaOp::GlobalStore, "", "m", "0") + ";"; // l.10 (-)
        t0 += translate(CudaOp::Threadfence); // l.11 (-)
    }

    std::string t1 =
        translate(CudaOp::AtomicCas, "r2", "m", "0", "1") + ";"; // l.3
    t1 += "setp.eq p1,r2,0;"; // l.4
    t1 += "@p1 mov r3,1;";    // l.5
    if (fixed)
        t1 += "@p1 " + translate(CudaOp::Threadfence) + ";"; // l.6 (+)
    t1 += "@p1 " + translate(CudaOp::GlobalStore, "", "x", "1"); // l.7

    return litmus::TestBuilder(fixed ? "sl-future+fixed"
                                     : "sl-future")
        .global("x", 0)
        .global("m", 1)
        .thread(t0)
        .thread(t1)
        .interCta()
        .exists("0:r0=1 /\\ 1:r2=0")
        .build();
}

std::string
casSpinLockSource(bool with_fences)
{
    std::string fence1 = with_fences ? "    __threadfence();\n" : "";
    return "__device__ void lock(void) {\n"
           "    while (atomicCAS(mutex, 0, 1) != 0);\n" +
           fence1 +
           "}\n"
           "__device__ void unlock(void) {\n" +
           fence1 +
           "    atomicExch(mutex, 0);\n"
           "}\n";
}

std::string
dequeSource(bool with_fences)
{
    std::string f = with_fences ? "    __threadfence();\n" : "";
    return "volatile int head, tail;\n"
           "void push(task) {\n"
           "    tasks[tail] = task;\n" +
           f +
           "    tail++;\n"
           "}\n"
           "Task steal() {\n"
           "    int oldHead = head;\n"
           "    if (tail <= oldHead.index) return EMPTY;\n" +
           f +
           "    task = tasks[oldHead.index];\n" +
           f +
           "    newHead = oldHead; newHead.index++;\n"
           "    if (CAS(&head, oldHead, newHead)) return task;\n"
           "    return FAILED;\n"
           "}\n";
}

std::string
heYuLockSource(bool fixed)
{
    if (fixed) {
        return "bool leaveLoop = false;\n"
               "while (!leaveLoop) {\n"
               "    int lockValue = atomicCAS(lockAddr, 0, 1);\n"
               "    if (lockValue == 0) {\n"
               "        leaveLoop = true;\n"
               "        __threadfence();\n"
               "        // critical section\n"
               "        __threadfence();\n"
               "        atomicExch(lockAddr, 0);\n"
               "    }\n"
               "}\n";
    }
    return "bool leaveLoop = false;\n"
           "while (!leaveLoop) {\n"
           "    int lockValue = atomicCAS(lockAddr, 0, 1);\n"
           "    if (lockValue == 0) {\n"
           "        leaveLoop = true;\n"
           "        // critical section\n"
           "        *lockAddr = 0;\n"
           "    }\n"
           "    __threadfence();\n"
           "}\n";
}

} // namespace gpulitmus::cuda
