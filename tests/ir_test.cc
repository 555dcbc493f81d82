/** @file Unit tests for the IR: builder, CFG, verifier, layout. */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/program.h"

namespace noreba {
namespace {

Program
simpleLoop()
{
    Program prog("loop");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int body = b.newBlock("body");
    int exit = b.newBlock("exit");
    b.at(entry).li(T0, 0).li(T1, 10).fallthrough(body);
    b.at(body).addi(T0, T0, 1).blt(T0, T1, body, exit);
    b.at(exit).halt();
    prog.finalize();
    return prog;
}

TEST(Ir, CfgEdges)
{
    Program prog = simpleLoop();
    const Function &fn = prog.function();
    EXPECT_EQ(fn.block(0).succs, (std::vector<int>{1}));
    // body -> {body (taken), exit (fallthrough)}
    EXPECT_EQ(fn.block(1).succs.size(), 2u);
    EXPECT_TRUE(fn.block(2).succs.empty());
    EXPECT_EQ(fn.block(1).preds.size(), 2u); // entry + back edge
}

TEST(Ir, VerifierAcceptsValid)
{
    Program prog = simpleLoop();
    EXPECT_EQ(prog.function().verify(), "");
}

TEST(Ir, VerifierRejectsControlMidBlock)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).jump(e).nop().halt();
    prog.function().computeCFG();
    EXPECT_NE(prog.function().verify().find("not at block end"),
              std::string::npos);
}

TEST(Ir, VerifierRejectsMissingFallthrough)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).nop(); // no terminator, no fallthrough
    prog.function().computeCFG();
    EXPECT_NE(prog.function().verify(), "");
}

TEST(Ir, VerifierRequiresHalt)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).jump(e); // infinite loop, no HALT anywhere
    prog.function().computeCFG();
    EXPECT_NE(prog.function().verify().find("HALT"), std::string::npos);
}

TEST(Ir, VerifierRejectsRegionCrossingBlock)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).emit(makeSetDependency(5, 1)).nop().halt();
    prog.function().computeCFG();
    EXPECT_NE(prog.function().verify().find("crosses block"),
              std::string::npos);
}

TEST(Ir, VerifierRejectsJalrWithoutTargets)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    Instruction j;
    j.op = Opcode::JALR;
    j.rs1 = T0;
    b.at(e).emit(j);
    prog.function().computeCFG();
    EXPECT_NE(prog.function().verify().find("jalr"), std::string::npos);
}

TEST(Ir, VerifierRejectsOutOfRangeRegister)
{
    // `and_` takes a register, so 511 is a register id, not an
    // immediate; finalize() must stop it before the pass indexes a
    // register file with it.
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).and_(T0, T1, 511).halt();
    prog.function().computeCFG();
    EXPECT_NE(prog.function().verify().find("register 511 out of range"),
              std::string::npos);
    EXPECT_EXIT(prog.finalize(), ::testing::ExitedWithCode(1),
                "register 511 out of range");
}

TEST(Ir, LayoutAssignsConsecutivePcs)
{
    Program prog = simpleLoop();
    const Layout &layout = prog.layout();
    EXPECT_EQ(layout.blockPc(0), CODE_BASE);
    EXPECT_EQ(layout.pc(0, 1), CODE_BASE + 4);
    // block 1 starts right after block 0's two instructions.
    EXPECT_EQ(layout.blockPc(1), CODE_BASE + 8);
    EXPECT_EQ(layout.codeBytes(),
              prog.function().numInsts() * INST_BYTES);
}

TEST(Ir, AllocGlobalIsAlignedAndDisjoint)
{
    Program prog("data");
    uint64_t a = prog.allocGlobal(100);
    uint64_t b = prog.allocGlobal(8);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(Ir, PokeWritesIntoSegments)
{
    Program prog("data");
    uint64_t base = prog.allocGlobal(64);
    prog.poke64(base + 8, 0x1122334455667788ull);
    prog.poke32(base + 16, 0xdeadbeef);
    prog.pokeDouble(base + 24, 1.5);
    bool found = false;
    for (const auto &seg : prog.dataSegments()) {
        if (seg.base == base) {
            found = true;
            EXPECT_EQ(seg.bytes[8], 0x88);
            EXPECT_EQ(seg.bytes[15], 0x11);
            EXPECT_EQ(seg.bytes[16], 0xef);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Ir, FunctionToStringShowsLabels)
{
    Program prog = simpleLoop();
    std::string text = prog.function().toString();
    EXPECT_NE(text.find("entry:"), std::string::npos);
    EXPECT_NE(text.find("-> body"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Ir, NumInstsCountsAllBlocks)
{
    Program prog = simpleLoop();
    EXPECT_EQ(prog.function().numInsts(), 5u);
}

} // namespace
} // namespace noreba
