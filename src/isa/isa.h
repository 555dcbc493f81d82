/**
 * @file
 * Instruction record and ISA property queries. A single Instruction
 * struct serves as the machine-level IR instruction (inside basic
 * blocks) — the NOREBA pass operates at machine level, like the paper's
 * LLVM RISC-V backend pass.
 */

#ifndef NOREBA_ISA_ISA_H
#define NOREBA_ISA_ISA_H

#include <cstdint>
#include <string>

#include "isa/opcodes.h"

namespace noreba {

/**
 * Architectural register identifiers. 0..31 are integer registers
 * (x0 is hardwired zero), 32..63 are floating-point registers.
 */
using Reg = int16_t;

constexpr Reg REG_NONE = -1;
constexpr Reg REG_ZERO = 0;             //!< x0, always zero
constexpr Reg REG_SP = 2;               //!< stack pointer (x2)
constexpr Reg REG_FP = 8;               //!< frame pointer (x8)
constexpr int NUM_INT_REGS = 32;
constexpr int NUM_FP_REGS = 32;
constexpr int NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS;

/** First FP register id. */
constexpr Reg FREG_BASE = NUM_INT_REGS;

/** fN as a Reg id. */
constexpr Reg freg(int n) { return static_cast<Reg>(FREG_BASE + n); }

/** Alias-region tag for memory operations (see AliasAnalysis). */
using AliasRegion = int32_t;
constexpr AliasRegion ALIAS_UNKNOWN = -1; //!< may alias any location

/**
 * One machine instruction. Branch targets are expressed as basic-block
 * ids at the IR level and resolved to PCs when the program is laid out.
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    Reg rd = REG_NONE;    //!< destination register (REG_NONE if none)
    Reg rs1 = REG_NONE;   //!< first source
    Reg rs2 = REG_NONE;   //!< second source (store data for stores)
    Reg rs3 = REG_NONE;   //!< third source (FMADD)
    int64_t imm = 0;      //!< immediate / offset / setup-instruction field

    /**
     * Branch/jump target as an IR basic-block id; -1 when not a control
     * transfer or for JALR (indirect).
     */
    int32_t target = -1;

    /**
     * Alias region of a memory access, set by the workload builder
     * (ALIAS_UNKNOWN = may alias everything). sp/fp-relative accesses
     * are additionally disambiguated by exact offset.
     */
    AliasRegion aliasRegion = ALIAS_UNKNOWN;

    bool hasDest() const { return rd > 0 || (rd >= FREG_BASE); }

    std::string toString() const;
};

/** @name Opcode class queries
 *  The core asks these several times per simulated instruction, so the
 *  hot ones are inline. @{ */
inline bool
isLoad(Opcode op)
{
    switch (op) {
      case Opcode::LB: case Opcode::LH: case Opcode::LW: case Opcode::LD:
      case Opcode::FLW: case Opcode::FLD:
        return true;
      default:
        return false;
    }
}

inline bool
isStore(Opcode op)
{
    switch (op) {
      case Opcode::SB: case Opcode::SH: case Opcode::SW: case Opcode::SD:
      case Opcode::FSW: case Opcode::FSD:
        return true;
      default:
        return false;
    }
}

inline bool isMem(Opcode op) { return isLoad(op) || isStore(op); }

inline bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::BLTU: case Opcode::BGEU:
        return true;
      default:
        return false;
    }
}

inline bool
isJump(Opcode op)
{
    return op == Opcode::JAL || op == Opcode::JALR;
}

inline bool isControl(Opcode op) { return isCondBranch(op) || isJump(op); }

/** setBranchId / setDependency */
inline bool
isSetup(Opcode op)
{
    return op == Opcode::SET_BRANCH_ID || op == Opcode::SET_DEPENDENCY;
}

/** @} */

/** Functional-unit class for the opcode. */
inline FuClass
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
      default: // CIT ops, FENCE and the integer ALU ops
        return FuClass::IntAlu;
    }
}

/** Execution latency in cycles on its functional unit. */
inline int
execLatency(Opcode op)
{
    switch (fuClass(op)) {
      case FuClass::IntMul: return 3;
      case FuClass::IntDiv: return 12;
      case FuClass::FpAlu: return 3;
      case FuClass::FpMul: return 4;
      case FuClass::FpDiv: return 12;
      case FuClass::None: return 0;
      default: // ALU, branch, and memory address generation (the cache
               // and TLB add their own latency)
        return 1;
    }
}

/** Access size in bytes for a memory opcode (0 otherwise). */
int memAccessSize(Opcode op);

/**
 * Collect the source registers of an instruction into `out` (capacity 3),
 * skipping REG_NONE and x0. Returns the number written.
 */
inline int
sourceRegs(const Instruction &inst, Reg out[3])
{
    int n = 0;
    for (Reg r : {inst.rs1, inst.rs2, inst.rs3})
        if (r != REG_NONE && r != REG_ZERO)
            out[n++] = r;
    return n;
}

} // namespace noreba

#endif // NOREBA_ISA_ISA_H
