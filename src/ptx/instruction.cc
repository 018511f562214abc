#include "ptx/instruction.h"

#include "common/log.h"
#include "common/strutil.h"

namespace gpulitmus::ptx {

Operand
Operand::makeReg(std::string name)
{
    Operand o;
    o.kind = Kind::Reg;
    o.reg = std::move(name);
    return o;
}

Operand
Operand::makeImm(int64_t value)
{
    Operand o;
    o.kind = Kind::Imm;
    o.imm = value;
    return o;
}

Operand
Operand::makeSym(std::string name)
{
    Operand o;
    o.kind = Kind::Sym;
    o.sym = std::move(name);
    return o;
}

std::string
Operand::str() const
{
    switch (kind) {
      case Kind::None: return "<none>";
      case Kind::Reg: return reg;
      case Kind::Imm: return std::to_string(imm);
      case Kind::Sym: return sym;
    }
    panic("unknown Operand kind");
}

bool
Instruction::isMemAccess() const
{
    switch (op) {
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::AtomCas:
      case Opcode::AtomExch:
      case Opcode::AtomInc:
      case Opcode::AtomAdd:
        return true;
      default:
        return false;
    }
}

bool
Instruction::isAtomic() const
{
    switch (op) {
      case Opcode::AtomCas:
      case Opcode::AtomExch:
      case Opcode::AtomInc:
      case Opcode::AtomAdd:
        return true;
      default:
        return false;
    }
}

bool
Instruction::readsMemory() const
{
    return op == Opcode::Ld || isAtomic();
}

bool
Instruction::writesMemory() const
{
    return op == Opcode::St || isAtomic();
}

std::vector<std::string>
Instruction::regsRead() const
{
    std::vector<std::string> regs;
    if (hasGuard)
        regs.push_back(guardReg);
    if (addr.isReg())
        regs.push_back(addr.reg);
    for (const auto &s : srcs) {
        if (s.isReg())
            regs.push_back(s.reg);
    }
    return regs;
}

std::string
Instruction::regWritten() const
{
    return dst;
}

bool
Instruction::operator==(const Instruction &other) const
{
    return op == other.op && type == other.type &&
           cacheOp == other.cacheOp && scope == other.scope &&
           space == other.space && isVolatile == other.isVolatile &&
           hasGuard == other.hasGuard &&
           guardNegated == other.guardNegated &&
           guardReg == other.guardReg && dst == other.dst &&
           addr == other.addr && srcs == other.srcs &&
           target == other.target;
}

std::string
Instruction::str() const
{
    std::string out;
    if (hasGuard) {
        out += "@";
        if (guardNegated)
            out += "!";
        out += guardReg + " ";
    }

    std::string mnemonic = toString(op);
    if (isVolatile)
        mnemonic += ".volatile";
    if (op == Opcode::Membar) {
        mnemonic += "." + toString(scope);
    } else if (isMemAccess()) {
        if (space != Space::Generic)
            mnemonic += "." + toString(space);
        if (cacheOp != CacheOp::None)
            mnemonic += "." + toString(cacheOp);
        mnemonic += "." + toString(type);
    } else if (op != Opcode::Bra && op != Opcode::Nop) {
        mnemonic += "." + toString(type);
    }
    out += mnemonic;

    switch (op) {
      case Opcode::Nop:
      case Opcode::Membar:
        break;
      case Opcode::Ld:
        out += " " + dst + ",[" + addr.str() + "]";
        break;
      case Opcode::St:
        out += " [" + addr.str() + "]," + srcs.at(0).str();
        break;
      case Opcode::AtomCas:
        out += " " + dst + ",[" + addr.str() + "]," + srcs.at(0).str() +
               "," + srcs.at(1).str();
        break;
      case Opcode::AtomExch:
      case Opcode::AtomAdd:
        out += " " + dst + ",[" + addr.str() + "]," + srcs.at(0).str();
        break;
      case Opcode::AtomInc:
        out += " " + dst + ",[" + addr.str() + "]";
        break;
      case Opcode::Mov:
      case Opcode::Cvt:
        out += " " + dst + "," + srcs.at(0).str();
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::SetpEq:
      case Opcode::SetpNe:
        out += " " + dst + "," + srcs.at(0).str() + "," +
               srcs.at(1).str();
        break;
      case Opcode::Bra:
        out += " " + target;
        break;
    }
    return out;
}

} // namespace gpulitmus::ptx
