/**
 * @file
 * Unit tests for the branch dependent code detection pass (paper
 * Section 3, Figure 2): reconvergence points, control/data dependence,
 * single-guard assignment, chain merging, and setup-instruction
 * emission.
 */

#include <gtest/gtest.h>

#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "isa/setup_encoding.h"

namespace noreba {
namespace {

/** The paper's Figure 2 if-then-else (stack-slot variant). */
Program
figure2()
{
    Program prog("fig2");
    IRBuilder b(prog);
    int bb1 = b.newBlock("BB1");
    int bb2 = b.newBlock("BB2");
    int bb3 = b.newBlock("BB3");
    int bb4 = b.newBlock("BB4");

    const AliasRegion R = 0;
    b.at(bb1)
        .li(A5, 1)
        .sw(A5, FP, -40, R)
        .sw(A5, FP, -36, R)
        .beq(A5, ZERO, bb3, bb2);

    auto arm = [&](int bb, bool subFirst) {
        b.at(bb)
            .lw(A4, FP, -40, R)
            .lw(A5, FP, -36, R);
        if (subFirst)
            b.sub(A5, A4, A5);
        else
            b.add(A5, A4, A5);
        b.sw(A5, FP, -20, R)
            .lw(A4, FP, -40, R)
            .lw(A5, FP, -36, R);
        if (subFirst)
            b.add(A5, A4, A5);
        else
            b.sub(A5, A4, A5);
        b.sw(A5, FP, -24, R).jump(bb4);
    };
    arm(bb2, true);
    arm(bb3, false);

    b.at(bb4)
        .lw(A4, FP, -40, R)   // independent: -40/-36 written in BB1
        .lw(A5, FP, -36, R)
        .xor_(A5, A5, A4)
        .sw(A5, FP, -52, R)
        .lw(A5, FP, -20, R)   // dependent: -20/-24 written in the arms
        .xor_(A5, A5, A4)
        .sw(A5, FP, -48, R)
        .lw(A5, FP, -24, R)
        .xor_(A5, A5, A4)
        .sw(A5, FP, -56, R)
        .halt();

    prog.finalize();
    return prog;
}

TEST(Pass, Figure2ReconvergenceAndRegions)
{
    Program prog = figure2();
    PassResult res = runBranchDependencePass(prog);

    ASSERT_EQ(res.branches.size(), 1u);
    const BranchSite &br = res.branches[0];
    EXPECT_EQ(br.bb, 0);
    EXPECT_EQ(br.reconvBlock, 3); // BB4 is label L2
    // Control-dependent blocks: BB2 and BB3 only.
    EXPECT_EQ(br.controlBlocks, (std::vector<int>{1, 2}));
    EXPECT_EQ(br.compilerId, 1);
}

TEST(Pass, Figure2Bb4SplitsIndependentThenDependent)
{
    Program prog = figure2();
    PassResult res = runBranchDependencePass(prog);

    // After annotation, BB4 must start with the four independent
    // instructions (no setDependency before them) and carry one
    // setDependency 6 1 before the blue region.
    const BasicBlock &bb4 = prog.function().block(3);
    ASSERT_FALSE(bb4.insts.empty());
    EXPECT_FALSE(bb4.insts[0].op == Opcode::SET_DEPENDENCY);
    int depRegions = 0;
    for (size_t i = 0; i < bb4.insts.size(); ++i) {
        if (bb4.insts[i].op == Opcode::SET_DEPENDENCY) {
            ++depRegions;
            EXPECT_EQ(setDependencyNum(bb4.insts[i]), 6);
            EXPECT_EQ(setDependencyId(bb4.insts[i]), 1);
            // It must precede the lw of -20(s0).
            EXPECT_EQ(bb4.insts[i + 1].op, Opcode::LW);
            EXPECT_EQ(bb4.insts[i + 1].imm, -20);
        }
    }
    EXPECT_EQ(depRegions, 1);
}

TEST(Pass, Figure2ArmsFullyCovered)
{
    Program prog = figure2();
    runBranchDependencePass(prog);
    for (int bb : {1, 2}) {
        const BasicBlock &arm = prog.function().block(bb);
        ASSERT_EQ(arm.insts[0].op, Opcode::SET_DEPENDENCY);
        // The region covers the whole arm (9 original instructions,
        // including the trailing jump).
        EXPECT_EQ(setDependencyNum(arm.insts[0]),
                  static_cast<int>(arm.insts.size()) - 1);
    }
}

TEST(Pass, SetBranchIdImmediatelyPrecedesBranch)
{
    Program prog = figure2();
    runBranchDependencePass(prog);
    const BasicBlock &bb1 = prog.function().block(0);
    ASSERT_GE(bb1.insts.size(), 2u);
    const Instruction &last = bb1.insts.back();
    const Instruction &prev = bb1.insts[bb1.insts.size() - 2];
    EXPECT_TRUE(isCondBranch(last.op));
    EXPECT_EQ(prev.op, Opcode::SET_BRANCH_ID);
    EXPECT_EQ(setBranchIdId(prev), 1);
}

TEST(Pass, AnnotationPreservesSemantics)
{
    Program plain = figure2();
    Program annotated = figure2();
    runBranchDependencePass(annotated);

    Interpreter a(plain), c(annotated);
    a.run();
    c.run();
    EXPECT_EQ(a.regChecksum(), c.regChecksum());
}

TEST(Pass, LoopBodyIsSelfDependent)
{
    // A do-while loop: the body (including the branch) is control
    // dependent on the loop branch itself via the back edge, so the
    // marking refers to the previous dynamic instance.
    Program prog("loop");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int body = b.newBlock("body");
    int exit = b.newBlock("exit");
    b.at(entry).li(T0, 0).li(T1, 5).fallthrough(body);
    b.at(body).addi(T0, T0, 1).blt(T0, T1, body, exit);
    b.at(exit).halt();
    prog.finalize();

    PassResult res = runBranchDependencePass(prog);
    ASSERT_EQ(res.branches.size(), 1u);
    EXPECT_EQ(res.branches[0].controlBlocks, (std::vector<int>{1}));
    // The loop body carries a region naming the loop branch's own ID.
    const BasicBlock &bodyBlk = prog.function().block(1);
    ASSERT_EQ(bodyBlk.insts[0].op, Opcode::SET_DEPENDENCY);
    EXPECT_EQ(setDependencyId(bodyBlk.insts[0]),
              res.branches[0].compilerId);
}

TEST(Pass, NestedBranchesUseInnermostGuard)
{
    Program prog("nested");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int outer = b.newBlock("outer");
    int inner = b.newBlock("inner");
    int innerJoin = b.newBlock("ijoin");
    int join = b.newBlock("join");
    b.at(entry).li(T0, 1).li(T1, 2).beq(T0, ZERO, join, outer);
    b.at(outer).beq(T1, ZERO, innerJoin, inner);
    b.at(inner).addi(T2, T2, 1).jump(innerJoin);
    b.at(innerJoin).addi(T3, T3, 1).jump(join);
    b.at(join).halt();
    prog.finalize();

    PassResult res = runBranchDependencePass(prog);
    ASSERT_EQ(res.branches.size(), 2u);
    // `inner` is inside both regions; its guard must be the inner
    // branch (the one in block `outer`).
    int innerBranch = res.branches[0].bb == 1 ? 0 : 1;
    const BasicBlock &innerBlk = prog.function().block(2);
    ASSERT_EQ(innerBlk.insts[0].op, Opcode::SET_DEPENDENCY);
    EXPECT_EQ(setDependencyId(innerBlk.insts[0]),
              res.branches[innerBranch].compilerId);
}

TEST(Pass, DataDependenceThroughAliasedStores)
{
    // The arms store through pointers into one region; a later load
    // from that region must be data dependent even though registers
    // carry no dependence.
    Program prog("alias");
    IRBuilder b(prog);
    uint64_t buf = prog.allocGlobal(64);
    int entry = b.newBlock("entry");
    int thenB = b.newBlock("then");
    int join = b.newBlock("join");
    const AliasRegion R = 1;
    b.at(entry)
        .li(S2, static_cast<int64_t>(buf))
        .li(T0, 1)
        .beq(T0, ZERO, join, thenB);
    b.at(thenB).sw(T0, S2, 0, R).jump(join);
    b.at(join)
        .addi(T3, T3, 1)      // independent
        .lw(T1, S2, 0, R)     // may-aliases the store: dependent
        .add(T2, T1, T1)      // uses the loaded value: dependent
        .halt();
    prog.finalize();

    PassResult res = runBranchDependencePass(prog);
    ASSERT_EQ(res.branches.size(), 1u);
    EXPECT_GE(res.branches[0].numDataDeps, 2);

    const BasicBlock &joinBlk = prog.function().block(2);
    // First instruction (addi) stays unmarked; a region starts at lw.
    EXPECT_NE(joinBlk.insts[0].op, Opcode::SET_DEPENDENCY);
    bool regionAtLw = false;
    for (size_t i = 0; i + 1 < joinBlk.insts.size(); ++i)
        if (joinBlk.insts[i].op == Opcode::SET_DEPENDENCY &&
            joinBlk.insts[i + 1].op == Opcode::LW)
            regionAtLw = true;
    EXPECT_TRUE(regionAtLw);
}

TEST(Pass, MultiDependenceMergesGuardChains)
{
    // z depends on two sequential, independent branches: the pass must
    // serialize their guard chains so one BranchID covers both.
    Program prog("merge");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int t1 = b.newBlock("t1");
    int mid = b.newBlock("mid");
    int t2 = b.newBlock("t2");
    int join = b.newBlock("join");
    b.at(entry).li(T0, 1).li(T1, 1).li(T2, 0).li(T3, 0)
        .beq(T0, ZERO, mid, t1);
    b.at(t1).li(T2, 5).jump(mid);
    b.at(mid).beq(T1, ZERO, join, t2);
    b.at(t2).li(T3, 7).jump(join);
    b.at(join)
        .add(T4, T2, T3) // depends on BOTH branches
        .halt();
    prog.finalize();

    PassResult res = runBranchDependencePass(prog);
    EXPECT_GE(res.numChainMerges, 1);
    // Both branches end up marked, and the add is in a region.
    EXPECT_EQ(res.numMarkedBranches, 2);
}

TEST(Pass, FenceStaysUnmarked)
{
    Program prog("fence");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int thenB = b.newBlock("then");
    int join = b.newBlock("join");
    b.at(entry).li(T0, 1).beq(T0, ZERO, join, thenB);
    b.at(thenB).addi(T1, T1, 1).jump(join);
    b.at(join).fence().addi(T2, T1, 1).halt();
    prog.finalize();

    runBranchDependencePass(prog);
    // The FENCE must not sit inside a dependency region.
    const BasicBlock &joinBlk = prog.function().block(2);
    for (size_t i = 0; i < joinBlk.insts.size(); ++i) {
        if (joinBlk.insts[i].op == Opcode::SET_DEPENDENCY) {
            int num = setDependencyNum(joinBlk.insts[i]);
            int covered = 0;
            for (size_t k = i + 1;
                 k < joinBlk.insts.size() && covered < num; ++k) {
                if (!isSetup(joinBlk.insts[k].op)) {
                    EXPECT_NE(joinBlk.insts[k].op, Opcode::FENCE);
                    ++covered;
                }
            }
        }
    }
}

TEST(Pass, RegionsNeverCrossBlockBoundaries)
{
    Program prog = figure2();
    runBranchDependencePass(prog);
    // The verifier enforces this; re-check explicitly.
    Diagnostics diag(prog.name());
    EXPECT_TRUE(verifyStructure(prog, diag)) << diag.toText();
}

TEST(Pass, ReportMentionsKeyStats)
{
    Program prog = figure2();
    PassResult res = runBranchDependencePass(prog);
    std::string report = res.report();
    EXPECT_NE(report.find("marked branches"), std::string::npos);
    EXPECT_NE(report.find("setup instructions"), std::string::npos);
    EXPECT_GT(res.instsAfter, res.instsBefore);
}

} // namespace
} // namespace noreba
