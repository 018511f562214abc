/**
 * @file
 * The PTX instruction representation used across the simulator, the
 * axiomatic engine, the mock assembler and the test generator, and
 * the one definition of what the ALU and atomic opcodes compute.
 *
 * Every thread is written as PTX text and read by ptx::parseThread
 * (ptx/parser.h), whether it comes from a .litmus file or from
 * litmus::TestBuilder; only the compiler-quirk passes of src/opt
 * edit the parsed instructions.
 */

#ifndef GPULITMUS_PTX_INSTRUCTION_H
#define GPULITMUS_PTX_INSTRUCTION_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/log.h"
#include "ptx/types.h"

namespace gpulitmus::ptx {

/**
 * An instruction operand: a register name, an immediate, or a symbolic
 * memory location (the paper's shorthand "st.cg [x],1" addresses the
 * litmus location x directly).
 */
struct Operand
{
    enum class Kind { None, Reg, Imm, Sym };

    Kind kind = Kind::None;
    std::string reg;   ///< register name when kind == Reg
    int64_t imm = 0;   ///< immediate value when kind == Imm
    std::string sym;   ///< location name when kind == Sym

    static Operand makeReg(std::string name);
    static Operand makeImm(int64_t value);
    static Operand makeSym(std::string name);

    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isSym() const { return kind == Kind::Sym; }
    bool isNone() const { return kind == Kind::None; }

    std::string str() const;
    bool operator==(const Operand &other) const = default;
};

/**
 * One PTX instruction. Guarded (predicated) execution is expressed by
 * the guard fields: "@p ld ..." executes only when register p is
 * non-zero; "@!p ..." only when p is zero.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    DataType type = DataType::S32;
    CacheOp cacheOp = CacheOp::None;
    Scope scope = Scope::Gl;        ///< membar / atom scope
    Space space = Space::Generic;   ///< declared state space, if any
    bool isVolatile = false;

    bool hasGuard = false;
    bool guardNegated = false;
    std::string guardReg;

    std::string dst;        ///< destination register (or predicate)
    Operand addr;           ///< memory operand for ld/st/atom
    std::vector<Operand> srcs; ///< value operands
    std::string target;     ///< branch target label for bra

    /**
     * 1-based source position in the file the instruction was parsed
     * from; 0 for a built-in thread (litmus::TestBuilder). Not part
     * of the instruction's identity: operator== ignores both fields,
     * so a built-in program compares equal to its printed and
     * reparsed round trip.
     */
    int srcLine = 0;
    int srcCol = 0;

    /** True for ld / st / atom.* (instructions that touch memory). */
    bool isMemAccess() const;
    /** True for atom.* (read-modify-write). */
    bool isAtomic() const;
    /** True if the instruction reads memory (ld or atom.*). */
    bool readsMemory() const;
    /** True if the instruction writes memory (st or atom.*). */
    bool writesMemory() const;
    /** True for membar. */
    bool isFence() const { return op == Opcode::Membar; }

    /** All register names this instruction reads (incl. guard). */
    std::vector<std::string> regsRead() const;
    /** Register name written, or empty. */
    std::string regWritten() const;

    /** Canonical text, e.g. "@!p0 ld.cg.s32 r1,[x]". */
    std::string str() const;

    /** Semantic equality; srcLine/srcCol are deliberately excluded. */
    bool operator==(const Instruction &other) const;
};

/**
 * The value an ALU instruction (add, sub, and, or, xor, setp.eq,
 * setp.ne) writes to its destination, from its two source values.
 * The one definition of these opcodes: the simulator, the candidate
 * enumerator, the SC interpreter and the analyzer's value sets all
 * call it.
 */
inline int64_t
aluResult(Opcode op, int64_t a, int64_t b)
{
    switch (op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::SetpEq: return a == b;
      case Opcode::SetpNe: return a != b;
      default: panic("aluResult of non-ALU opcode %d", int(op));
    }
}

/**
 * The value an atom.* instruction writes over the location's old
 * value, from its source values (cmp and swap for atom.cas, the
 * operand for atom.exch and atom.add; atom.inc reads neither), or
 * nullopt when it writes nothing: a failed atom.cas. The one
 * definition of the atomics, like aluResult.
 */
inline std::optional<int64_t>
atomicWrite(Opcode op, int64_t old, int64_t src0, int64_t src1)
{
    switch (op) {
      case Opcode::AtomCas:
        if (old != src0)
            return std::nullopt;
        return src1;
      case Opcode::AtomExch: return src0;
      case Opcode::AtomInc: return old + 1;
      case Opcode::AtomAdd: return old + src0;
      default: panic("atomicWrite of non-atomic opcode %d", int(op));
    }
}

} // namespace gpulitmus::ptx

#endif // GPULITMUS_PTX_INSTRUCTION_H
