/** @file Unit tests for the ISA layer and setup-instruction encoding. */

#include <gtest/gtest.h>

#include "isa/isa.h"
#include "isa/setup_encoding.h"

namespace noreba {
namespace {

TEST(Isa, LoadStoreClassification)
{
    for (Opcode op : {Opcode::LB, Opcode::LH, Opcode::LW, Opcode::LD,
                      Opcode::FLW, Opcode::FLD}) {
        EXPECT_TRUE(isLoad(op)) << opcodeName(op);
        EXPECT_FALSE(isStore(op));
        EXPECT_TRUE(isMem(op));
    }
    for (Opcode op : {Opcode::SB, Opcode::SH, Opcode::SW, Opcode::SD,
                      Opcode::FSW, Opcode::FSD}) {
        EXPECT_TRUE(isStore(op)) << opcodeName(op);
        EXPECT_FALSE(isLoad(op));
    }
    EXPECT_FALSE(isMem(Opcode::ADD));
}

TEST(Isa, ControlClassification)
{
    for (Opcode op : {Opcode::BEQ, Opcode::BNE, Opcode::BLT,
                      Opcode::BGE, Opcode::BLTU, Opcode::BGEU}) {
        EXPECT_TRUE(isCondBranch(op));
        EXPECT_TRUE(isControl(op));
    }
    EXPECT_TRUE(isJump(Opcode::JAL));
    EXPECT_TRUE(isJump(Opcode::JALR));
    EXPECT_FALSE(isCondBranch(Opcode::JAL));
    EXPECT_FALSE(isControl(Opcode::ADD));
}

TEST(Isa, SetupAndCitOps)
{
    EXPECT_TRUE(isSetup(Opcode::SET_BRANCH_ID));
    EXPECT_TRUE(isSetup(Opcode::SET_DEPENDENCY));
    EXPECT_FALSE(isSetup(Opcode::GET_CIT_ENTRY));
}

TEST(Isa, FuClasses)
{
    EXPECT_EQ(fuClass(Opcode::ADD), FuClass::IntAlu);
    EXPECT_EQ(fuClass(Opcode::MUL), FuClass::IntMul);
    EXPECT_EQ(fuClass(Opcode::DIV), FuClass::IntDiv);
    EXPECT_EQ(fuClass(Opcode::FADD), FuClass::FpAlu);
    EXPECT_EQ(fuClass(Opcode::FMADD), FuClass::FpMul);
    EXPECT_EQ(fuClass(Opcode::FSQRT), FuClass::FpDiv);
    EXPECT_EQ(fuClass(Opcode::LW), FuClass::MemRead);
    EXPECT_EQ(fuClass(Opcode::SW), FuClass::MemWrite);
    EXPECT_EQ(fuClass(Opcode::BNE), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::JALR), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::SET_BRANCH_ID), FuClass::None);
    EXPECT_EQ(fuClass(Opcode::NOP), FuClass::None);
}

TEST(Isa, LatenciesAreOrdered)
{
    EXPECT_EQ(execLatency(Opcode::ADD), 1);
    EXPECT_GT(execLatency(Opcode::MUL), execLatency(Opcode::ADD));
    EXPECT_GT(execLatency(Opcode::DIV), execLatency(Opcode::MUL));
    EXPECT_GT(execLatency(Opcode::FDIV), execLatency(Opcode::FADD));
    EXPECT_EQ(execLatency(Opcode::SET_DEPENDENCY), 0);
}

TEST(Isa, MemAccessSizes)
{
    EXPECT_EQ(memAccessSize(Opcode::LB), 1);
    EXPECT_EQ(memAccessSize(Opcode::LH), 2);
    EXPECT_EQ(memAccessSize(Opcode::LW), 4);
    EXPECT_EQ(memAccessSize(Opcode::LD), 8);
    EXPECT_EQ(memAccessSize(Opcode::FSD), 8);
    EXPECT_EQ(memAccessSize(Opcode::ADD), 0);
}

TEST(Isa, SourceRegsSkipsZeroAndNone)
{
    Instruction inst;
    inst.op = Opcode::ADD;
    inst.rs1 = 5;
    inst.rs2 = REG_ZERO;
    Reg out[3];
    EXPECT_EQ(sourceRegs(inst, out), 1);
    EXPECT_EQ(out[0], 5);

    Instruction fma;
    fma.op = Opcode::FMADD;
    fma.rs1 = freg(1);
    fma.rs2 = freg(2);
    fma.rs3 = freg(3);
    EXPECT_EQ(sourceRegs(fma, out), 3);
}

TEST(Isa, HasDestExcludesX0)
{
    Instruction inst;
    inst.op = Opcode::ADD;
    inst.rd = REG_ZERO;
    EXPECT_FALSE(inst.hasDest());
    inst.rd = 3;
    EXPECT_TRUE(inst.hasDest());
    inst.rd = freg(0);
    EXPECT_TRUE(inst.hasDest());
    inst.rd = REG_NONE;
    EXPECT_FALSE(inst.hasDest());
}

TEST(SetupEncoding, RoundTrip)
{
    Instruction sb = makeSetBranchId(5);
    EXPECT_EQ(sb.op, Opcode::SET_BRANCH_ID);
    EXPECT_EQ(setBranchIdId(sb), 5);

    Instruction sd = makeSetDependency(37, 6);
    EXPECT_EQ(sd.op, Opcode::SET_DEPENDENCY);
    EXPECT_EQ(setDependencyNum(sd), 37);
    EXPECT_EQ(setDependencyId(sd), 6);
}

TEST(SetupEncoding, ToStringMatchesPaperSyntax)
{
    EXPECT_EQ(makeSetBranchId(1).toString(), "setBranchId 1");
    EXPECT_EQ(makeSetDependency(8, 1).toString(), "setDependency 8 1");
}

TEST(Isa, MemToStringUsesOffsetForm)
{
    Instruction lw;
    lw.op = Opcode::LW;
    lw.rd = 14;
    lw.rs1 = REG_FP;
    lw.imm = -40;
    EXPECT_EQ(lw.toString(), "lw x14, -40(x8)");

    Instruction sw;
    sw.op = Opcode::SW;
    sw.rs2 = 15;
    sw.rs1 = REG_FP;
    sw.imm = -20;
    EXPECT_EQ(sw.toString(), "sw x15, -20(x8)");
}

} // namespace
} // namespace noreba
