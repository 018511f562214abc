/**
 * @file
 * Unit tests for the PTX IR: instruction parsing (paper shorthand and
 * full spellings), printing round-trips, program/label handling, and
 * what the ALU and atomic opcodes compute.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "ptx/parser.h"

namespace gpulitmus::ptx {
namespace {

Instruction
parse1(const std::string &text)
{
    ParseError err;
    auto i = parseInstruction(text, &err);
    EXPECT_TRUE(i.has_value()) << text << ": " << err.message;
    return i.value_or(Instruction{});
}

TEST(PtxParser, LoadWithCacheOp)
{
    Instruction i = parse1("ld.cg r1,[x]");
    EXPECT_EQ(i.op, Opcode::Ld);
    EXPECT_EQ(i.cacheOp, CacheOp::Cg);
    EXPECT_EQ(i.dst, "r1");
    EXPECT_TRUE(i.addr.isSym());
    EXPECT_EQ(i.addr.sym, "x");
}

TEST(PtxParser, LoadCaTargetsL1)
{
    Instruction i = parse1("ld.ca r2,[y]");
    EXPECT_EQ(i.cacheOp, CacheOp::Ca);
}

TEST(PtxParser, LoadFullSpelling)
{
    Instruction i = parse1("ld.global.cg.s32 r1,[r3]");
    EXPECT_EQ(i.space, Space::Global);
    EXPECT_EQ(i.cacheOp, CacheOp::Cg);
    EXPECT_EQ(i.type, DataType::S32);
    EXPECT_TRUE(i.addr.isReg());
    EXPECT_EQ(i.addr.reg, "r3");
}

TEST(PtxParser, StoreImmediate)
{
    Instruction i = parse1("st.cg [x],1");
    EXPECT_EQ(i.op, Opcode::St);
    ASSERT_EQ(i.srcs.size(), 1u);
    EXPECT_TRUE(i.srcs[0].isImm());
    EXPECT_EQ(i.srcs[0].imm, 1);
}

TEST(PtxParser, StoreRegister)
{
    Instruction i = parse1("st.cg.s32 [r1],r0");
    EXPECT_TRUE(i.srcs[0].isReg());
    EXPECT_EQ(i.srcs[0].reg, "r0");
}

TEST(PtxParser, VolatileAccesses)
{
    EXPECT_TRUE(parse1("ld.volatile r1,[y]").isVolatile);
    EXPECT_TRUE(parse1("st.volatile [x],1").isVolatile);
    EXPECT_TRUE(parse1("st.volatile.s32 [x],1").isVolatile);
}

TEST(PtxParser, MembarScopes)
{
    EXPECT_EQ(parse1("membar.cta").scope, Scope::Cta);
    EXPECT_EQ(parse1("membar.gl").scope, Scope::Gl);
    EXPECT_EQ(parse1("membar.sys").scope, Scope::Sys);
    EXPECT_TRUE(parse1("membar.gl").isFence());
}

TEST(PtxParser, AtomicCas)
{
    Instruction i = parse1("atom.cas r0,[h],0,1");
    EXPECT_EQ(i.op, Opcode::AtomCas);
    EXPECT_TRUE(i.isAtomic());
    EXPECT_TRUE(i.readsMemory());
    EXPECT_TRUE(i.writesMemory());
    ASSERT_EQ(i.srcs.size(), 2u);
    EXPECT_EQ(i.srcs[0].imm, 0);
    EXPECT_EQ(i.srcs[1].imm, 1);
}

TEST(PtxParser, AtomicExch)
{
    Instruction i = parse1("atom.exch r0,[m],0");
    EXPECT_EQ(i.op, Opcode::AtomExch);
    EXPECT_EQ(i.dst, "r0");
}

TEST(PtxParser, AtomicInc)
{
    Instruction i = parse1("atom.inc r0,[c]");
    EXPECT_EQ(i.op, Opcode::AtomInc);
}

TEST(PtxParser, AtomWithTypeAndSpace)
{
    Instruction i = parse1("atom.global.cas.b32 r0,[h],0,1");
    EXPECT_EQ(i.op, Opcode::AtomCas);
    EXPECT_EQ(i.space, Space::Global);
}

TEST(PtxParser, AluOps)
{
    Instruction i = parse1("add r2,r2,1");
    EXPECT_EQ(i.op, Opcode::Add);
    EXPECT_EQ(i.dst, "r2");

    Instruction a = parse1("and.b32 r2,r1,0x80000000");
    EXPECT_EQ(a.op, Opcode::And);
    EXPECT_EQ(a.srcs[1].imm, 0x80000000LL);

    Instruction x = parse1("xor.b32 r2,r1,r1");
    EXPECT_EQ(x.op, Opcode::Xor);
}

TEST(OpcodeSemantics, EveryAluAndAtomicOpcode)
{
    // aluResult and atomicWrite are the one definition the simulator,
    // the candidate enumerator, the SC interpreter and the analyzer
    // share. One row per case; every opcode not in a table must be
    // one that computes nothing.
    struct AluRow
    {
        Opcode op;
        int64_t a, b, want;
    };
    const AluRow alu[] = {
        {Opcode::Add, 6, 3, 9},     {Opcode::Sub, 6, 3, 3},
        {Opcode::Sub, 3, 6, -3},    {Opcode::And, 6, 3, 2},
        {Opcode::Or, 6, 3, 7},      {Opcode::Xor, 6, 3, 5},
        {Opcode::SetpEq, 6, 3, 0},  {Opcode::SetpEq, 3, 3, 1},
        {Opcode::SetpNe, 6, 3, 1},  {Opcode::SetpNe, 3, 3, 0},
    };
    struct AtomRow
    {
        Opcode op;
        int64_t old, src0, src1;
        std::optional<int64_t> want;
    };
    const AtomRow atom[] = {
        {Opcode::AtomCas, 5, 5, 9, 9},             // cmp matches
        {Opcode::AtomCas, 4, 5, 9, std::nullopt},  // fails: no write
        {Opcode::AtomExch, 5, 7, 0, 7},
        {Opcode::AtomInc, 5, 0, 0, 6},
        {Opcode::AtomAdd, 5, 7, 0, 12},
    };
    std::set<Opcode> covered;
    for (const auto &r : alu) {
        EXPECT_EQ(aluResult(r.op, r.a, r.b), r.want)
            << toString(r.op) << " " << r.a << "," << r.b;
        covered.insert(r.op);
    }
    for (const auto &r : atom) {
        EXPECT_TRUE(Instruction{.op = r.op}.isAtomic()) << toString(r.op);
        EXPECT_EQ(atomicWrite(r.op, r.old, r.src0, r.src1), r.want)
            << toString(r.op) << " over " << r.old;
        covered.insert(r.op);
    }
    const std::set<Opcode> computeNothing = {
        Opcode::Nop, Opcode::Ld,  Opcode::St,  Opcode::Membar,
        Opcode::Mov, Opcode::Cvt, Opcode::Bra,
    };
    for (int o = 0; o <= static_cast<int>(Opcode::Bra); ++o) { // last
        auto op = static_cast<Opcode>(o);
        EXPECT_NE(covered.count(op), computeNothing.count(op))
            << toString(op);
    }
}

TEST(PtxParser, SetpAndGuards)
{
    Instruction s = parse1("setp.eq p4,r0,0");
    EXPECT_EQ(s.op, Opcode::SetpEq);
    EXPECT_EQ(s.dst, "p4");

    Instruction g = parse1("@!p4 ld.cg r1,[d]");
    EXPECT_TRUE(g.hasGuard);
    EXPECT_TRUE(g.guardNegated);
    EXPECT_EQ(g.guardReg, "p4");
    EXPECT_EQ(g.op, Opcode::Ld);

    // The paper's bare guard style.
    Instruction b = parse1("!p4 membar.gl");
    EXPECT_TRUE(b.hasGuard);
    EXPECT_TRUE(b.guardNegated);
    EXPECT_EQ(b.op, Opcode::Membar);

    Instruction p = parse1("p1 membar.gl");
    EXPECT_TRUE(p.hasGuard);
    EXPECT_FALSE(p.guardNegated);
    EXPECT_EQ(p.guardReg, "p1");
}

TEST(PtxParser, CvtAndMov)
{
    Instruction c = parse1("cvt.u64.u32 r3,r2");
    EXPECT_EQ(c.op, Opcode::Cvt);
    Instruction m = parse1("mov.s32 r0,1");
    EXPECT_EQ(m.op, Opcode::Mov);
    EXPECT_EQ(m.srcs[0].imm, 1);
}

TEST(PtxParser, Bra)
{
    Instruction i = parse1("bra LOOP");
    EXPECT_EQ(i.op, Opcode::Bra);
    EXPECT_EQ(i.target, "LOOP");
}

TEST(PtxParser, RejectsBadInput)
{
    ParseError err;
    EXPECT_FALSE(parseInstruction("frobnicate r1,[x]", &err));
    EXPECT_FALSE(parseInstruction("", &err));
    EXPECT_FALSE(parseInstruction("ld.cg r1", &err));
    EXPECT_FALSE(parseInstruction("st.cg [x]", &err));
    EXPECT_FALSE(parseInstruction("atom.cas r0,[h],0", &err));
    EXPECT_FALSE(parseInstruction("ld.zz r1,[x]", &err));
}

TEST(PtxParser, RegsReadWritten)
{
    Instruction i = parse1("@p1 st.cg.s32 [r1],r0");
    auto regs = i.regsRead();
    EXPECT_EQ(regs.size(), 3u); // guard, addr, value
    EXPECT_EQ(i.regWritten(), "");

    Instruction l = parse1("ld.cg r5,[r6]");
    EXPECT_EQ(l.regWritten(), "r5");
}

class RoundTripTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RoundTripTest, PrintParsePrintIsStable)
{
    Instruction first = parse1(GetParam());
    Instruction second = parse1(first.str());
    EXPECT_EQ(first, second) << "printed as: " << first.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllForms, RoundTripTest,
    ::testing::Values(
        "ld.cg r1,[x]", "ld.ca r2,[y]", "ld.volatile r1,[y]",
        "ld.global.cg.s32 r1,[r3]", "st.cg [x],1",
        "st.volatile [x],1", "st.cg.s32 [r1],r0", "membar.cta",
        "membar.gl", "membar.sys", "atom.cas r0,[h],0,1",
        "atom.exch r0,[m],0", "atom.inc r0,[c]", "mov.s32 r0,1",
        "add r2,r2,1", "and.b32 r2,r1,0x80000000",
        "xor.b32 r2,r1,r1", "setp.eq p4,r0,0", "@!p4 ld.cg r1,[d]",
        "@p2 membar.gl", "bra END", "cvt.u64.u32 r3,r2"));

TEST(ThreadProgram, ParsesSequencesAndLabels)
{
    ptx::ParseError err;
    auto prog = parseThread(
        "mov r0,0\n"
        "LOOP: atom.cas r1,[m],0,1\n"
        "setp.ne p0,r1,0\n"
        "@p0 bra LOOP\n"
        "ld.cg r2,[x]",
        &err);
    ASSERT_TRUE(prog.has_value()) << err.message;
    EXPECT_EQ(prog->instrs.size(), 5u);
    EXPECT_EQ(prog->labelTarget("LOOP"), 1);
}

TEST(ThreadProgram, SemicolonSeparated)
{
    auto prog = parseThread("st.cg [x],1; membar.gl; st.cg [y],1");
    ASSERT_TRUE(prog.has_value());
    EXPECT_EQ(prog->instrs.size(), 3u);
    EXPECT_EQ(prog->instrs[1].op, Opcode::Membar);
}

TEST(ThreadProgram, CommentsStripped)
{
    auto prog = parseThread("st.cg [x],1 // write data\n"
                            "// whole-line comment\n"
                            "membar.gl");
    ASSERT_TRUE(prog.has_value());
    EXPECT_EQ(prog->instrs.size(), 2u);
}

TEST(Program, CountsAndRendering)
{
    Program p;
    p.threads.push_back(*parseThread("st.cg [x],1; st.cg [y],1"));
    p.threads.push_back(*parseThread("ld.cg r1,[y]; ld.cg r2,[x]"));
    EXPECT_EQ(p.numThreads(), 2);
    EXPECT_EQ(p.numInstructions(), 4);
    std::string s = p.str();
    EXPECT_NE(s.find("T0"), std::string::npos);
    EXPECT_NE(s.find("|"), std::string::npos);
}

} // namespace
} // namespace gpulitmus::ptx
