/**
 * @file
 * The scenario Builder: a fluent, *typed* front end for constructing
 * whole-application workloads as litmus tests.
 *
 * The paper's Sec. 3.2 / Sec. 7 punchline is that weak behaviours
 * break deployed programs — spin locks, work-stealing deques — not
 * just four-instruction idioms. This layer makes such programs
 * first-class citizens of the whole pipeline: a scenario is written
 * once against typed handles (`Loc`, `Reg`) with structured ops
 * (`ld/st/cas/exch/inc/membar/branch/label`, plus `.volatile_()`,
 * cache-operator, guard and dependency modifiers), its "wrong
 * result" is stated as a `forbid(...)` / `require(...)` final
 * condition, and `build()` lowers the whole thing to a plain
 * `litmus::Test` — which then runs unchanged under every backend:
 * sampled (`sim`), exhaustive (`mc`) and axiomatic (model ids), via
 * grids planned by `serve::planJobs`, the CLI and the conformance
 * join.
 *
 * Lowering is exact: the emitted instructions are the same
 * `ptx::build` encodings the hand-written library and the CUDA
 * distillations use, so a Builder transcription of a library test is
 * structurally identical to it (the test suite pins cas-sl and mp).
 * Labelled programs (spin loops) survive the litmus print/reparse
 * round trip: `ptx::Program::str()` renders labels in the form
 * `ptx::parseThread` accepts.
 *
 *   using namespace gpulitmus::scenario;
 *   Builder b("mp");
 *   Loc x = b.global("x"), y = b.global("y");
 *   Thread &t0 = b.thread();
 *   t0.st(x, 1).st(y, 1);
 *   Thread &t1 = b.thread();
 *   Reg r1 = t1.reg("r1"), r2 = t1.reg("r2");
 *   t1.ld(r1, y).ld(r2, x);
 *   litmus::Test test =
 *       b.allow(r1 == 1 && r2 == 0).build();
 */

#ifndef GPULITMUS_SCENARIO_BUILDER_H
#define GPULITMUS_SCENARIO_BUILDER_H

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "litmus/test.h"
#include "ptx/instruction.h"

namespace gpulitmus::scenario {

class Builder;
class Thread;

/** Typed handle to a shared memory location of the scenario. */
class Loc
{
  public:
    const std::string &name() const { return name_; }

  private:
    friend class Builder;
    explicit Loc(std::string name) : name_(std::move(name)) {}
    std::string name_;
};

/**
 * Typed handle to a register of one specific thread. Carrying the
 * owning thread id is what lets a final-condition atom `r1 == 1` know
 * which thread's r1 it constrains.
 */
class Reg
{
  public:
    int tid() const { return tid_; }
    const std::string &name() const { return name_; }

  private:
    friend class Thread;
    Reg(int tid, std::string name)
        : tid_(tid), name_(std::move(name))
    {}
    int tid_;
    std::string name_;
};

/** An instruction operand: an immediate or a register handle. */
class Val
{
  public:
    Val(int64_t v) : op_(ptx::Operand::makeImm(v)) {}
    Val(int v) : op_(ptx::Operand::makeImm(v)) {}
    Val(const Reg &r) : op_(ptx::Operand::makeReg(r.name())) {}

    const ptx::Operand &operand() const { return op_; }

  private:
    ptx::Operand op_;
};

/**
 * A final-condition expression over typed handles, composed with the
 * C++ operators: `r1 == 1 && (sum != 3 || r2 == 0)`. Wraps a
 * `litmus::Condition`; `!=` lowers to the negation of an equality
 * atom, which the litmus condition grammar round-trips as `~(...)`.
 */
class Cond
{
  public:
    const litmus::Condition &condition() const { return cond_; }

    friend Cond operator&&(const Cond &a, const Cond &b);
    friend Cond operator||(const Cond &a, const Cond &b);
    friend Cond operator!(const Cond &a);

    friend Cond operator==(const Reg &r, int64_t v);
    friend Cond operator!=(const Reg &r, int64_t v);
    friend Cond operator==(const Loc &l, int64_t v);
    friend Cond operator!=(const Loc &l, int64_t v);

  private:
    explicit Cond(litmus::Condition c) : cond_(std::move(c)) {}
    litmus::Condition cond_;
};

// Namespace-scope declarations (the in-class friends alone are only
// reachable via Cond-argument ADL, which the atom forms lack).
Cond operator&&(const Cond &a, const Cond &b);
Cond operator||(const Cond &a, const Cond &b);
Cond operator!(const Cond &a);
Cond operator==(const Reg &r, int64_t v);
Cond operator!=(const Reg &r, int64_t v);
Cond operator==(const Loc &l, int64_t v);
Cond operator!=(const Loc &l, int64_t v);

/**
 * One thread of the scenario under construction. Every op appends an
 * instruction and returns the thread for chaining; the trailing
 * modifiers (`volatile_`, `ca`, `scope`, `onlyIf`, `dependsOn`, ...)
 * rewrite the most recently appended instruction.
 */
class Thread
{
  public:
    /** Typed handle to this thread's register `name`. */
    Reg reg(const std::string &name);

    // ---- memory ops (default cache operator: .cg, as the paper's
    // tests use throughout) ---------------------------------------
    Thread &ld(const Reg &dst, const Loc &src);
    Thread &st(const Loc &dst, const Val &value);
    /** atom.cas dst,[l],cmp,swap */
    Thread &cas(const Reg &dst, const Loc &l, const Val &cmp,
                const Val &swap);
    /** atom.exch dst,[l],value */
    Thread &exch(const Reg &dst, const Loc &l, const Val &value);
    /** atom.inc dst,[l] — CUDA atomicAdd(&l, 1), returns the old
     * value. */
    Thread &inc(const Reg &dst, const Loc &l);
    Thread &membar(ptx::Scope scope = ptx::Scope::Gl);

    // ---- ALU / control flow --------------------------------------
    Thread &mov(const Reg &dst, const Val &v);
    Thread &add(const Reg &dst, const Val &a, const Val &b);
    Thread &and_(const Reg &dst, const Val &a, const Val &b);
    Thread &xor_(const Reg &dst, const Val &a, const Val &b);
    Thread &setpEq(const Reg &pred, const Val &a, const Val &b);
    Thread &setpNe(const Reg &pred, const Val &a, const Val &b);
    /** Bind `name` to the next appended instruction. */
    Thread &label(const std::string &name);
    Thread &branch(const std::string &target);
    /** `@pred bra target` / `@!pred bra target`. */
    Thread &branchIf(const Reg &pred, const std::string &target);
    Thread &branchIfNot(const Reg &pred, const std::string &target);

    // ---- trailing modifiers (rewrite the last instruction) -------
    /** Mark the last ld/st volatile (clears the cache operator, as
     * the Tab. 5 mapping does for volatile int accesses). */
    Thread &volatile_();
    /** Cache operator of the last ld/st: .ca (L1), .cg (L2), .cv. */
    Thread &ca();
    Thread &cg();
    Thread &cv();
    /** Scope of the last membar (or atomic). */
    Thread &scope(ptx::Scope s);
    /** Predicate the last instruction: `@pred ...` / `@!pred ...`. */
    Thread &onlyIf(const Reg &pred);
    Thread &unless(const Reg &pred);
    /**
     * Make the last memory access artificially depend on `src`, in
     * the paper's Fig. 13 style (gen/generator.cc emits the same
     * shapes): a store value is routed through
     * `and.b32 rz,src,0x80000000; add.s32 rv,rz,v`, a load address
     * through `cvt` + `add.u64` onto a register preloaded with the
     * location's address. Scratch registers are allocated fresh.
     */
    Thread &dependsOn(const Reg &src);

    int tid() const { return tid_; }

  private:
    friend class Builder;
    Thread(Builder *owner, int tid, litmus::ThreadPlacement placement)
        : owner_(owner), tid_(tid), placement_(placement)
    {}

    Thread &append(ptx::Instruction instr);
    ptx::Instruction &last(const char *modifier);
    /** Fresh scratch register (r64, r65, ...) for dependency
     * plumbing; fatal if the scenario already uses the name. */
    Reg scratch();

    Builder *owner_;
    int tid_;
    litmus::ThreadPlacement placement_;
    ptx::ThreadProgram prog_;
    std::set<std::string> regNames_;
    int nextScratch_ = 64;
};

/**
 * Whole-scenario builder. Declare locations, open thread blocks,
 * state the final condition, `build()`.
 */
class Builder
{
  public:
    explicit Builder(std::string name);

    // ---- locations -----------------------------------------------
    Loc global(const std::string &name, int64_t init = 0);
    Loc shared(const std::string &name, int64_t init = 0);

    // ---- threads -------------------------------------------------
    /** Open a thread block in its own CTA (the paper's default
     * inter-CTA placement). */
    Thread &thread();
    /** Open a thread block at an explicit (cta, warp) position in
     * the scope tree. */
    Thread &thread(int cta, int warp);

    // ---- register initialisation ---------------------------------
    Builder &init(const Reg &r, int64_t value);
    /** Initialise a register with a location's address (register-
     * addressed accesses, address dependencies). */
    Builder &initAddr(const Reg &r, const Loc &l);

    // ---- final condition -----------------------------------------
    /** The bug: `~exists (cond)` — the scenario is correct iff cond
     * is never reachable. This is what "wrong result" means for an
     * application scenario; see docs/VERDICTS.md. */
    Builder &forbid(const Cond &cond);
    /** The invariant: `forall (cond)` — must hold in every final
     * state. */
    Builder &require(const Cond &cond);
    /** Litmus-style `exists (cond)`: is the outcome observable? */
    Builder &allow(const Cond &cond);

    /** Lower to a litmus::Test; panics on inconsistent scenarios
     * (missing condition, unknown labels, ...). */
    litmus::Test build() const;

  private:
    friend class Thread;

    std::string name_;
    std::vector<litmus::LocationDef> locations_;
    std::vector<litmus::RegInit> regInits_;
    std::deque<Thread> threads_; ///< deque: stable Thread& handles
    litmus::Quantifier quantifier_ = litmus::Quantifier::Exists;
    litmus::Condition condition_;
    bool condSet_ = false;
};

} // namespace gpulitmus::scenario

#endif // GPULITMUS_SCENARIO_BUILDER_H
