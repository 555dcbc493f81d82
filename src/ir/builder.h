/**
 * @file
 * Fluent construction helper for IR programs. Workload generators use
 * this to write RISC-V-flavoured code without hand-assembling
 * Instruction structs.
 */

#ifndef NOREBA_IR_BUILDER_H
#define NOREBA_IR_BUILDER_H

#include "ir/program.h"
#include "isa/setup_encoding.h"

namespace noreba {

/**
 * Builds instructions into the current block of a Program's function.
 *
 * Typical use:
 * @code
 *   Program prog("loop");
 *   IRBuilder b(prog);
 *   int head = b.newBlock("head"), body = b.newBlock("body"),
 *       done = b.newBlock("done");
 *   b.at(head).li(T0, 0).fallthrough(body);
 *   b.at(body).addi(T0, T0, 1).blt(T0, T1, body, done);
 *   b.at(done).halt();
 *   prog.finalize();
 * @endcode
 */
class IRBuilder
{
  public:
    explicit IRBuilder(Program &prog) : prog_(prog) {}

    /** Create a new block and return its id (does not switch to it). */
    int newBlock(std::string label = "")
    {
        return prog_.function().addBlock(std::move(label));
    }

    /** Switch the insertion point to block `id`. */
    IRBuilder &at(int id) { cur_ = id; return *this; }

    /** Set the fallthrough successor of the current block. */
    IRBuilder &
    fallthrough(int id)
    {
        prog_.function().block(cur_).fallthrough = id;
        return *this;
    }

    /** Append a raw instruction to the current block. */
    IRBuilder &
    emit(Instruction inst)
    {
        prog_.function().block(cur_).insts.push_back(inst);
        return *this;
    }

    /** @name Integer ALU @{ */
    IRBuilder &op3(Opcode op, Reg rd, Reg rs1, Reg rs2)
    {
        Instruction i;
        i.op = op; i.rd = rd; i.rs1 = rs1; i.rs2 = rs2;
        return emit(i);
    }
    IRBuilder &opImm(Opcode op, Reg rd, Reg rs1, int64_t imm)
    {
        Instruction i;
        i.op = op; i.rd = rd; i.rs1 = rs1; i.imm = imm;
        return emit(i);
    }
    IRBuilder &add(Reg rd, Reg a, Reg b) { return op3(Opcode::ADD, rd, a, b); }
    IRBuilder &sub(Reg rd, Reg a, Reg b) { return op3(Opcode::SUB, rd, a, b); }
    IRBuilder &and_(Reg rd, Reg a, Reg b) { return op3(Opcode::AND, rd, a, b); }
    IRBuilder &or_(Reg rd, Reg a, Reg b) { return op3(Opcode::OR, rd, a, b); }
    IRBuilder &xor_(Reg rd, Reg a, Reg b) { return op3(Opcode::XOR, rd, a, b); }
    IRBuilder &sll(Reg rd, Reg a, Reg b) { return op3(Opcode::SLL, rd, a, b); }
    IRBuilder &srl(Reg rd, Reg a, Reg b) { return op3(Opcode::SRL, rd, a, b); }
    IRBuilder &sra(Reg rd, Reg a, Reg b) { return op3(Opcode::SRA, rd, a, b); }
    IRBuilder &slt(Reg rd, Reg a, Reg b) { return op3(Opcode::SLT, rd, a, b); }
    IRBuilder &mul(Reg rd, Reg a, Reg b) { return op3(Opcode::MUL, rd, a, b); }
    IRBuilder &div(Reg rd, Reg a, Reg b) { return op3(Opcode::DIV, rd, a, b); }
    IRBuilder &rem(Reg rd, Reg a, Reg b) { return op3(Opcode::REM, rd, a, b); }

    IRBuilder &addi(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::ADD, rd, rs1, imm); }
    IRBuilder &andi(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::AND, rd, rs1, imm); }
    IRBuilder &ori(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::OR, rd, rs1, imm); }
    IRBuilder &xori(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::XOR, rd, rs1, imm); }
    IRBuilder &slli(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::SLL, rd, rs1, imm); }
    IRBuilder &srli(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::SRL, rd, rs1, imm); }
    IRBuilder &slti(Reg rd, Reg rs1, int64_t imm)
    { return opImm(Opcode::SLT, rd, rs1, imm); }

    /** Load a (possibly large) constant into rd. */
    IRBuilder &li(Reg rd, int64_t imm)
    {
        Instruction i;
        i.op = Opcode::LUI; i.rd = rd; i.imm = imm;
        return emit(i);
    }
    IRBuilder &mv(Reg rd, Reg rs) { return addi(rd, rs, 0); }
    IRBuilder &nop()
    {
        Instruction i;
        i.op = Opcode::NOP;
        return emit(i);
    }
    /** @} */

    /** @name Memory @{ */
    IRBuilder &
    memOp(Opcode op, Reg data, Reg base, int64_t off,
          AliasRegion region)
    {
        Instruction i;
        i.op = op;
        i.rs1 = base;
        i.imm = off;
        i.aliasRegion = region;
        if (isLoad(op))
            i.rd = data;
        else
            i.rs2 = data;
        return emit(i);
    }
    IRBuilder &lb(Reg rd, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::LB, rd, base, off, r); }
    IRBuilder &lh(Reg rd, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::LH, rd, base, off, r); }
    IRBuilder &lw(Reg rd, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::LW, rd, base, off, r); }
    IRBuilder &ld(Reg rd, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::LD, rd, base, off, r); }
    IRBuilder &fld(Reg rd, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::FLD, rd, base, off, r); }
    IRBuilder &sb(Reg rs, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::SB, rs, base, off, r); }
    IRBuilder &sh(Reg rs, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::SH, rs, base, off, r); }
    IRBuilder &sw(Reg rs, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::SW, rs, base, off, r); }
    IRBuilder &sd(Reg rs, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::SD, rs, base, off, r); }
    IRBuilder &fsd(Reg rs, Reg base, int64_t off, AliasRegion r)
    { return memOp(Opcode::FSD, rs, base, off, r); }
    /** @} */

    /** @name Floating point @{ */
    IRBuilder &fadd(Reg rd, Reg a, Reg b) { return op3(Opcode::FADD, rd, a, b); }
    IRBuilder &fsub(Reg rd, Reg a, Reg b) { return op3(Opcode::FSUB, rd, a, b); }
    IRBuilder &fmul(Reg rd, Reg a, Reg b) { return op3(Opcode::FMUL, rd, a, b); }
    IRBuilder &fdiv(Reg rd, Reg a, Reg b) { return op3(Opcode::FDIV, rd, a, b); }
    IRBuilder &fsqrt(Reg rd, Reg a)
    {
        Instruction i;
        i.op = Opcode::FSQRT; i.rd = rd; i.rs1 = a;
        return emit(i);
    }
    IRBuilder &fmadd(Reg rd, Reg a, Reg b, Reg c)
    {
        Instruction i;
        i.op = Opcode::FMADD; i.rd = rd; i.rs1 = a; i.rs2 = b; i.rs3 = c;
        return emit(i);
    }
    IRBuilder &fmv(Reg rd, Reg rs)
    {
        Instruction i;
        i.op = Opcode::FMV; i.rd = rd; i.rs1 = rs;
        return emit(i);
    }
    IRBuilder &fmin(Reg rd, Reg a, Reg b) { return op3(Opcode::FMIN, rd, a, b); }
    IRBuilder &fmax(Reg rd, Reg a, Reg b) { return op3(Opcode::FMAX, rd, a, b); }
    IRBuilder &flt(Reg rd, Reg a, Reg b) { return op3(Opcode::FLT, rd, a, b); }
    IRBuilder &fcvtDL(Reg rd, Reg rs)
    {
        Instruction i;
        i.op = Opcode::FCVT_D_L; i.rd = rd; i.rs1 = rs;
        return emit(i);
    }
    IRBuilder &fcvtLD(Reg rd, Reg rs)
    {
        Instruction i;
        i.op = Opcode::FCVT_L_D; i.rd = rd; i.rs1 = rs;
        return emit(i);
    }
    /** @} */

    /** @name Control flow @{ */

    /** Conditional branch: taken -> `taken`, else fallthrough `notTaken`. */
    IRBuilder &
    condBr(Opcode op, Reg a, Reg b, int taken, int notTaken)
    {
        Instruction i;
        i.op = op; i.rs1 = a; i.rs2 = b; i.target = taken;
        emit(i);
        prog_.function().block(cur_).fallthrough = notTaken;
        return *this;
    }
    IRBuilder &beq(Reg a, Reg b, int taken, int notTaken)
    { return condBr(Opcode::BEQ, a, b, taken, notTaken); }
    IRBuilder &bne(Reg a, Reg b, int taken, int notTaken)
    { return condBr(Opcode::BNE, a, b, taken, notTaken); }
    IRBuilder &blt(Reg a, Reg b, int taken, int notTaken)
    { return condBr(Opcode::BLT, a, b, taken, notTaken); }
    IRBuilder &bge(Reg a, Reg b, int taken, int notTaken)
    { return condBr(Opcode::BGE, a, b, taken, notTaken); }
    IRBuilder &bltu(Reg a, Reg b, int taken, int notTaken)
    { return condBr(Opcode::BLTU, a, b, taken, notTaken); }

    /** Unconditional jump. */
    IRBuilder &
    jump(int target)
    {
        Instruction i;
        i.op = Opcode::JAL; i.target = target;
        return emit(i);
    }

    /**
     * Computed jump: rs1's value (clamped) selects one of `targets`.
     * Models a jump-table/switch; predicted via the BTB in the core.
     */
    IRBuilder &
    jumpTable(Reg selector, std::vector<int> targets)
    {
        Instruction i;
        i.op = Opcode::JALR; i.rs1 = selector;
        emit(i);
        prog_.function().block(cur_).indirectTargets = std::move(targets);
        return *this;
    }

    IRBuilder &
    halt()
    {
        Instruction i;
        i.op = Opcode::HALT;
        return emit(i);
    }

    IRBuilder &
    fence()
    {
        Instruction i;
        i.op = Opcode::FENCE;
        return emit(i);
    }
    /** @} */

    Program &program() { return prog_; }

  private:
    Program &prog_;
    int cur_ = -1;
};

/** @name Conventional register names (RISC-V ABI flavoured) @{ */
constexpr Reg ZERO = 0;
constexpr Reg RA = 1;
constexpr Reg SP = REG_SP;
constexpr Reg GP = 3;
constexpr Reg TP = 4;
constexpr Reg T0 = 5, T1 = 6, T2 = 7;
constexpr Reg FP = REG_FP;
constexpr Reg S1 = 9;
constexpr Reg A0 = 10, A1 = 11, A2 = 12, A3 = 13, A4 = 14, A5 = 15;
constexpr Reg A6 = 16, A7 = 17;
constexpr Reg S2 = 18, S3 = 19, S4 = 20, S5 = 21, S6 = 22, S7 = 23;
constexpr Reg S8 = 24, S9 = 25, S10 = 26, S11 = 27;
constexpr Reg T3 = 28, T4 = 29, T5 = 30, T6 = 31;
constexpr Reg F0 = freg(0), F1 = freg(1), F2 = freg(2), F3 = freg(3);
constexpr Reg F4 = freg(4), F5 = freg(5), F6 = freg(6), F7 = freg(7);
constexpr Reg F8 = freg(8), F9 = freg(9), F10 = freg(10), F11 = freg(11);
/** @} */

} // namespace noreba

#endif // NOREBA_IR_BUILDER_H
