#include "isa/isa.h"

#include <sstream>

#include "common/logging.h"

namespace noreba {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::ADD: return "add";
      case Opcode::SUB: return "sub";
      case Opcode::AND: return "and";
      case Opcode::OR: return "or";
      case Opcode::XOR: return "xor";
      case Opcode::SLL: return "sll";
      case Opcode::SRL: return "srl";
      case Opcode::SRA: return "sra";
      case Opcode::SLT: return "slt";
      case Opcode::SLTU: return "sltu";
      case Opcode::LUI: return "lui";
      case Opcode::AUIPC: return "auipc";
      case Opcode::MUL: return "mul";
      case Opcode::MULH: return "mulh";
      case Opcode::DIV: return "div";
      case Opcode::REM: return "rem";
      case Opcode::LB: return "lb";
      case Opcode::LH: return "lh";
      case Opcode::LW: return "lw";
      case Opcode::LD: return "ld";
      case Opcode::FLW: return "flw";
      case Opcode::FLD: return "fld";
      case Opcode::SB: return "sb";
      case Opcode::SH: return "sh";
      case Opcode::SW: return "sw";
      case Opcode::SD: return "sd";
      case Opcode::FSW: return "fsw";
      case Opcode::FSD: return "fsd";
      case Opcode::BEQ: return "beq";
      case Opcode::BNE: return "bne";
      case Opcode::BLT: return "blt";
      case Opcode::BGE: return "bge";
      case Opcode::BLTU: return "bltu";
      case Opcode::BGEU: return "bgeu";
      case Opcode::JAL: return "jal";
      case Opcode::JALR: return "jalr";
      case Opcode::FADD: return "fadd";
      case Opcode::FSUB: return "fsub";
      case Opcode::FMUL: return "fmul";
      case Opcode::FDIV: return "fdiv";
      case Opcode::FSQRT: return "fsqrt";
      case Opcode::FMADD: return "fmadd";
      case Opcode::FMIN: return "fmin";
      case Opcode::FMAX: return "fmax";
      case Opcode::FCVT_D_L: return "fcvt.d.l";
      case Opcode::FCVT_L_D: return "fcvt.l.d";
      case Opcode::FEQ: return "feq";
      case Opcode::FLT: return "flt";
      case Opcode::FLE: return "fle";
      case Opcode::FMV: return "fmv";
      case Opcode::FENCE: return "fence";
      case Opcode::SET_BRANCH_ID: return "setBranchId";
      case Opcode::SET_DEPENDENCY: return "setDependency";
      case Opcode::GET_CIT_ENTRY: return "getCITEntry";
      case Opcode::SET_CIT_ENTRY: return "setCITEntry";
      case Opcode::NOP: return "nop";
      case Opcode::HALT: return "halt";
      default: return "???";
    }
}

bool
isFloat(Opcode op)
{
    switch (op) {
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FSQRT: case Opcode::FMADD:
      case Opcode::FMIN: case Opcode::FMAX: case Opcode::FCVT_D_L:
      case Opcode::FCVT_L_D: case Opcode::FEQ: case Opcode::FLT:
      case Opcode::FLE: case Opcode::FMV:
      case Opcode::FLW: case Opcode::FLD: case Opcode::FSW:
      case Opcode::FSD:
        return true;
      default:
        return false;
    }
}

bool
isCitOp(Opcode op)
{
    return op == Opcode::GET_CIT_ENTRY || op == Opcode::SET_CIT_ENTRY;
}

bool
mayRaiseException(Opcode op)
{
    // RISC-V FP exceptions accrue in fcsr without trapping (Section 4.4),
    // so only memory operations can raise.
    return isMem(op);
}

FuClass
fuClass(Opcode op)
{
    if (isLoad(op))
        return FuClass::MemRead;
    if (isStore(op))
        return FuClass::MemWrite;
    if (isControl(op))
        return FuClass::Branch;
    if (isSetup(op) || op == Opcode::NOP || op == Opcode::HALT)
        return FuClass::None;
    switch (op) {
      case Opcode::MUL: case Opcode::MULH:
        return FuClass::IntMul;
      case Opcode::DIV: case Opcode::REM:
        return FuClass::IntDiv;
      case Opcode::FDIV: case Opcode::FSQRT:
        return FuClass::FpDiv;
      case Opcode::FMUL: case Opcode::FMADD:
        return FuClass::FpMul;
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMIN:
      case Opcode::FMAX: case Opcode::FCVT_D_L: case Opcode::FCVT_L_D:
      case Opcode::FEQ: case Opcode::FLT: case Opcode::FLE:
      case Opcode::FMV:
        return FuClass::FpAlu;
      case Opcode::GET_CIT_ENTRY: case Opcode::SET_CIT_ENTRY:
      case Opcode::FENCE:
        return FuClass::IntAlu;
      default:
        return FuClass::IntAlu;
    }
}

int
execLatency(Opcode op)
{
    switch (fuClass(op)) {
      case FuClass::IntAlu: return 1;
      case FuClass::IntMul: return 3;
      case FuClass::IntDiv: return 12;
      case FuClass::FpAlu: return 3;
      case FuClass::FpMul: return 4;
      case FuClass::FpDiv: return 12;
      case FuClass::Branch: return 1;
      case FuClass::MemRead: return 1;   // address generation; cache adds
      case FuClass::MemWrite: return 1;
      case FuClass::None: return 0;
      default: return 1;
    }
}

int
memAccessSize(Opcode op)
{
    switch (op) {
      case Opcode::LB: case Opcode::SB: return 1;
      case Opcode::LH: case Opcode::SH: return 2;
      case Opcode::LW: case Opcode::SW: case Opcode::FLW:
      case Opcode::FSW: return 4;
      case Opcode::LD: case Opcode::SD: case Opcode::FLD:
      case Opcode::FSD: return 8;
      default: return 0;
    }
}

namespace {

std::string
regName(Reg r)
{
    if (r == REG_NONE)
        return "-";
    std::ostringstream os;
    if (r >= FREG_BASE)
        os << 'f' << (r - FREG_BASE);
    else
        os << 'x' << r;
    return os.str();
}

} // namespace

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << opcodeName(op);
    if (op == Opcode::SET_BRANCH_ID) {
        os << ' ' << imm;
        return os.str();
    }
    if (op == Opcode::SET_DEPENDENCY) {
        // imm packs NUM (low 32), ID (bits 32..47) and the
        // order-sensitive flag (bit 62); see setup_encoding.h.
        os << ' ' << (imm & 0xffffffff) << ' '
           << ((imm >> 32) & 0xffff);
        return os.str();
    }
    if (isLoad(op)) {
        os << ' ' << regName(rd) << ", " << imm << '(' << regName(rs1)
           << ')';
        return os.str();
    }
    if (isStore(op)) {
        os << ' ' << regName(rs2) << ", " << imm << '(' << regName(rs1)
           << ')';
        return os.str();
    }
    if (rd != REG_NONE)
        os << ' ' << regName(rd);
    if (rs1 != REG_NONE)
        os << (rd != REG_NONE ? ", " : " ") << regName(rs1);
    if (rs2 != REG_NONE)
        os << ", " << regName(rs2);
    if (rs3 != REG_NONE)
        os << ", " << regName(rs3);
    if (imm != 0 || op == Opcode::LUI)
        os << ", " << imm;
    if (target >= 0)
        os << " -> bb" << target;
    return os.str();
}

} // namespace noreba
