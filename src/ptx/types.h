/**
 * @file
 * Core enumerations for the PTX subset modelled in this library.
 *
 * The subset follows Sec. 2.3 of the paper: loads (ld), stores (st),
 * ALU operations (add, and, xor, or, mov, cvt), fences (membar)
 * parameterised by scope, unconditional jumps (bra), predicate-setting
 * comparisons (setp), predicated instructions, read-modify-writes
 * (atom.cas / atom.exch / atom.inc / atom.add), volatile accesses, and
 * cache operators (.ca targets the L1, .cg targets the L2).
 */

#ifndef GPULITMUS_PTX_TYPES_H
#define GPULITMUS_PTX_TYPES_H

#include <string>

namespace gpulitmus::ptx {

/** Instruction opcodes of the modelled PTX fragment. */
enum class Opcode {
    Nop,
    Ld,       ///< load from memory
    St,       ///< store to memory
    AtomCas,  ///< atomic compare-and-swap
    AtomExch, ///< atomic exchange
    AtomInc,  ///< atomic increment (CUDA atomicAdd(..., 1))
    AtomAdd,  ///< atomic add
    Membar,   ///< memory fence, parameterised by scope
    Mov,      ///< register move / load immediate
    Add,      ///< integer add
    Sub,      ///< integer subtract
    And,      ///< bitwise and
    Or,       ///< bitwise or
    Xor,      ///< bitwise xor
    SetpEq,   ///< set predicate if equal
    SetpNe,   ///< set predicate if not equal
    Cvt,      ///< width conversion (semantically a move here)
    Bra,      ///< unconditional (possibly predicated) branch
};

/**
 * PTX cache operators (PTX ISA Chap. 8.7). Only the ones the paper
 * exercises are modelled.
 */
enum class CacheOp {
    None, ///< no explicit operator; CUDA default for loads is .ca
    Ca,   ///< cache at all levels (L1 and L2); written ".ca"
    Cg,   ///< cache global: bypass L1, cache at L2; written ".cg"
    Wb,   ///< write-back store (default store semantics)
    Cv,   ///< consider cached value stale, fetch volatile
};

/**
 * Fence / membar scopes, from narrowest to widest: .cta orders within
 * a CTA, .gl within the GPU, .sys with the host.
 */
enum class Scope {
    Cta,
    Gl,
    Sys,
};

/** Memory state spaces relevant to the paper's tests. */
enum class Space {
    Generic, ///< not statically known; resolved by address at run time
    Global,  ///< device global memory (L1/L2-cached)
    Shared,  ///< per-SM scratchpad shared within a CTA
};

/** Type specifiers; semantics here are width-agnostic 64-bit ints. */
enum class DataType {
    S32,
    U32,
    B32,
    S64,
    U64,
    B64,
    Pred,
};

/** Printable mnemonic fragment for each enum. */
std::string toString(Opcode op);
std::string toString(CacheOp c);
std::string toString(Scope s);
std::string toString(Space s);
std::string toString(DataType t);

/** Scope containment: true if outer is at least as wide as inner. */
inline bool
scopeAtLeast(Scope outer, Scope inner)
{
    return static_cast<int>(outer) >= static_cast<int>(inner);
}

} // namespace gpulitmus::ptx

#endif // GPULITMUS_PTX_TYPES_H
