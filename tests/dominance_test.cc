/**
 * @file
 * Unit tests for dominator/post-dominator trees and reconvergence
 * detection (step A of the NOREBA pass) on textbook CFG shapes.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/dominance.h"

namespace noreba {
namespace {

/** entry -> (then | else) -> join -> halt */
Program
diamond()
{
    Program prog("diamond");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int thenB = b.newBlock("then");
    int elseB = b.newBlock("else");
    int join = b.newBlock("join");
    b.at(entry).li(T0, 1).beq(T0, ZERO, elseB, thenB);
    b.at(thenB).nop().jump(join);
    b.at(elseB).nop().jump(join);
    b.at(join).halt();
    prog.finalize();
    return prog;
}

TEST(Dominance, DiamondPostDominators)
{
    Program prog = diamond();
    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    // join post-dominates everything; it is ipdom of entry/then/else.
    EXPECT_EQ(pdom.idom(0), 3);
    EXPECT_EQ(pdom.idom(1), 3);
    EXPECT_EQ(pdom.idom(2), 3);
    EXPECT_EQ(pdom.idom(3), -1); // only the virtual exit above it
    EXPECT_TRUE(pdom.dominates(3, 0));
    EXPECT_FALSE(pdom.dominates(1, 0)); // then doesn't pdom entry
}

TEST(Dominance, DiamondDominators)
{
    Program prog = diamond();
    DominatorTree dom(prog.function(), DominatorTree::Kind::Dominators);
    EXPECT_EQ(dom.idom(1), 0);
    EXPECT_EQ(dom.idom(2), 0);
    EXPECT_EQ(dom.idom(3), 0); // join's idom is entry, not then/else
    EXPECT_TRUE(dom.dominates(0, 3));
    EXPECT_FALSE(dom.dominates(1, 3));
}

TEST(Dominance, ReconvergenceOfDiamondBranch)
{
    Program prog = diamond();
    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    EXPECT_EQ(reconvergenceBlock(pdom, 0), 3);
}

TEST(Dominance, LoopBranchReconvergesAtExit)
{
    Program prog("loop");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int body = b.newBlock("body");
    int exit = b.newBlock("exit");
    b.at(entry).li(T0, 0).fallthrough(body);
    b.at(body).addi(T0, T0, 1).slti(T1, T0, 9).bne(T1, ZERO, body, exit);
    b.at(exit).halt();
    prog.finalize();

    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    EXPECT_EQ(reconvergenceBlock(pdom, 1), 2);
}

TEST(Dominance, NestedIfInnermostFirst)
{
    // entry -> outer_then { inner branch } -> join; nested regions.
    Program prog("nested");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int outer = b.newBlock("outer_then");
    int inner = b.newBlock("inner_then");
    int innerJoin = b.newBlock("inner_join");
    int join = b.newBlock("join");
    b.at(entry).li(T0, 1).beq(T0, ZERO, join, outer);
    b.at(outer).li(T1, 2).beq(T1, ZERO, innerJoin, inner);
    b.at(inner).nop().jump(innerJoin);
    b.at(innerJoin).nop().jump(join);
    b.at(join).halt();
    prog.finalize();

    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    EXPECT_EQ(reconvergenceBlock(pdom, 0), 4); // outer branch -> join
    EXPECT_EQ(reconvergenceBlock(pdom, 1), 3); // inner -> inner_join
    // Nesting: inner_join is post-dominated by join.
    EXPECT_TRUE(pdom.dominates(4, 3));
}

TEST(Dominance, MultipleExits)
{
    // A branch whose arms HALT separately: no common post-dominator
    // other than the virtual exit.
    Program prog("exits");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int a = b.newBlock("a");
    int c = b.newBlock("c");
    b.at(entry).li(T0, 1).beq(T0, ZERO, c, a);
    b.at(a).halt();
    b.at(c).halt();
    prog.finalize();

    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    EXPECT_EQ(reconvergenceBlock(pdom, 0), -1);
}

TEST(Dominance, JumpTableReconverges)
{
    Program prog("switch");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int h0 = b.newBlock("h0");
    int h1 = b.newBlock("h1");
    int h2 = b.newBlock("h2");
    int join = b.newBlock("join");
    b.at(entry).li(T0, 1).jumpTable(T0, {h0, h1, h2});
    b.at(h0).nop().jump(join);
    b.at(h1).nop().jump(join);
    b.at(h2).nop().jump(join);
    b.at(join).halt();
    prog.finalize();

    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    EXPECT_EQ(reconvergenceBlock(pdom, 0), 4);
}

TEST(Dominance, UnreachableBlockHasNoIdom)
{
    Program prog("unreach");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int dead = b.newBlock("dead");
    int exit = b.newBlock("exit");
    b.at(entry).jump(exit);
    b.at(dead).jump(exit);
    b.at(exit).halt();
    prog.finalize();

    DominatorTree dom(prog.function(), DominatorTree::Kind::Dominators);
    EXPECT_EQ(dom.idom(1), -1);
    EXPECT_EQ(dom.rpoRank(1), -1);
    EXPECT_EQ(dom.rpoRank(entry), 0);
    EXPECT_EQ(dom.rpoRank(exit), 1);
}

} // namespace
} // namespace noreba
