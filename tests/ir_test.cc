/** @file Unit tests for the IR: builder, CFG, verifier, layout. */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/program.h"
#include "ir/verifier.h"

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

/** True if `diag` holds a `rule` finding whose message has `text`. */
bool
hasFinding(const Diagnostics &diag, const std::string &rule,
           const std::string &text)
{
    for (const Finding &f : diag.findings())
        if (f.rule == rule && f.message.find(text) != std::string::npos)
            return true;
    return false;
}

/** verifyStructure()'s findings on `prog` after a fresh computeCFG(). */
Diagnostics
structureOf(Program &prog)
{
    prog.function().computeCFG();
    Diagnostics diag(prog.name());
    verifyStructure(prog, diag);
    return diag;
}

TEST(Ir, VerifierAcceptsValid)
{
    Program prog = simpleLoop();
    Diagnostics diag;
    EXPECT_TRUE(verifyStructure(prog, diag)) << diag.toText();
    EXPECT_TRUE(verifyProgram(prog, diag)) << diag.toText();
    EXPECT_TRUE(diag.findings().empty()) << diag.toText();
}

TEST(Ir, VerifierRejectsControlMidBlock)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).jump(e).nop().halt();
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "cfg-terminator", "not at block end"))
        << diag.toText();
}

TEST(Ir, VerifierRejectsMissingFallthrough)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).nop(); // no terminator, no fallthrough
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "cfg-terminator", "no fallthrough"))
        << diag.toText();
}

TEST(Ir, VerifierRequiresHalt)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).jump(e); // infinite loop, no HALT anywhere
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "cfg-no-exit", "HALT")) << diag.toText();
}

TEST(Ir, VerifierRejectsRegionCrossingBlock)
{
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).emit(makeSetDependency(5, 1)).nop().halt();
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "setup-dep-extent", "past the block end"))
        << diag.toText();
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
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "cfg-terminator", "jalr"))
        << diag.toText();
}

TEST(Ir, VerifierRejectsOutOfRangeTarget)
{
    // computeCFG() leaves the bad edge out of every preds list, so the
    // verifier reports it instead of a write past the block array.
    Program prog("bad");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).jump(7);
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "cfg-terminator",
                           "jump target 7 out of range"))
        << diag.toText();
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
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "encode-register",
                           "register field 511 out of range"))
        << diag.toText();
    EXPECT_EXIT(prog.finalize(), ::testing::ExitedWithCode(1),
                "encode-register");
}

TEST(Ir, VerifierRejectsEmptyFunction)
{
    Program prog("empty");
    Diagnostics diag = structureOf(prog);
    EXPECT_TRUE(hasFinding(diag, "cfg-entry", "out of range"))
        << diag.toText();
}

// The rules below are report-only: verifyStructure() (so finalize())
// accepts each program, and verifyProgram() names the fault.

TEST(Ir, VerifierWarnsOnUnreachableBlock)
{
    Program prog("dead");
    IRBuilder b(prog);
    int e = b.newBlock();
    int dead = b.newBlock("dead");
    b.at(e).halt();
    b.at(dead).halt();
    prog.finalize();
    Diagnostics diag;
    EXPECT_TRUE(verifyProgram(prog, diag)) << diag.toText();
    ASSERT_EQ(diag.findings().size(), 1u) << diag.toText();
    EXPECT_EQ(diag.findings().front().rule, "cfg-unreachable");
    EXPECT_EQ(diag.findings().front().loc.blockLabel, "dead");
}

TEST(Ir, VerifierWarnsOnBlockWithNoExitPath)
{
    Program prog("spin");
    IRBuilder b(prog);
    int e = b.newBlock();
    int spin = b.newBlock("spin");
    int done = b.newBlock("done");
    b.at(e).beq(T0, T1, done, spin);
    b.at(spin).jump(spin);
    b.at(done).halt();
    prog.finalize();
    Diagnostics diag;
    EXPECT_TRUE(verifyProgram(prog, diag)) << diag.toText();
    ASSERT_EQ(diag.findings().size(), 1u) << diag.toText();
    EXPECT_EQ(diag.findings().front().rule, "cfg-no-exit-path");
    EXPECT_EQ(diag.findings().front().loc.blockLabel, "spin");
}

TEST(Ir, VerifierReportsOperandShape)
{
    Program prog("shape");
    IRBuilder b(prog);
    int e = b.newBlock();
    Instruction st;
    st.op = Opcode::SD;
    st.rs1 = SP; // a base register but no data register
    b.at(e).emit(st).halt();
    prog.finalize();
    Diagnostics diag;
    EXPECT_FALSE(verifyProgram(prog, diag));
    EXPECT_TRUE(hasFinding(diag, "encode-operands", "data register"))
        << diag.toText();
}

TEST(Ir, VerifierReportsUnreachableHalt)
{
    // A HALT exists, so finalize() accepts the program (generated CFGs
    // carry such blocks); only the full verifier says nothing can reach
    // it.
    Program prog("stuck");
    IRBuilder b(prog);
    int e = b.newBlock();
    int exit = b.newBlock("exit");
    b.at(e).jump(e);
    b.at(exit).halt();
    prog.finalize();
    Diagnostics diag;
    EXPECT_FALSE(verifyProgram(prog, diag));
    EXPECT_TRUE(hasFinding(diag, "cfg-no-exit", "reachable"))
        << diag.toText();
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
