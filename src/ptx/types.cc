#include "ptx/types.h"

#include "common/log.h"

namespace gpulitmus::ptx {

std::string
toString(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::AtomCas: return "atom.cas";
      case Opcode::AtomExch: return "atom.exch";
      case Opcode::AtomInc: return "atom.inc";
      case Opcode::AtomAdd: return "atom.add";
      case Opcode::Membar: return "membar";
      case Opcode::Mov: return "mov";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::SetpEq: return "setp.eq";
      case Opcode::SetpNe: return "setp.ne";
      case Opcode::Cvt: return "cvt";
      case Opcode::Bra: return "bra";
    }
    panic("unknown Opcode");
}

std::string
toString(CacheOp c)
{
    switch (c) {
      case CacheOp::None: return "";
      case CacheOp::Ca: return "ca";
      case CacheOp::Cg: return "cg";
      case CacheOp::Wb: return "wb";
      case CacheOp::Cv: return "cv";
    }
    panic("unknown CacheOp");
}

std::string
toString(Scope s)
{
    switch (s) {
      case Scope::Cta: return "cta";
      case Scope::Gl: return "gl";
      case Scope::Sys: return "sys";
    }
    panic("unknown Scope");
}

std::string
toString(Space s)
{
    switch (s) {
      case Space::Generic: return "generic";
      case Space::Global: return "global";
      case Space::Shared: return "shared";
    }
    panic("unknown Space");
}

std::string
toString(DataType t)
{
    switch (t) {
      case DataType::S32: return "s32";
      case DataType::U32: return "u32";
      case DataType::B32: return "b32";
      case DataType::S64: return "s64";
      case DataType::U64: return "u64";
      case DataType::B64: return "b64";
      case DataType::Pred: return "pred";
    }
    panic("unknown DataType");
}

} // namespace gpulitmus::ptx
