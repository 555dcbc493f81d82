/**
 * @file
 * Tests for the static annotation checker (src/analysis).
 *
 * Three angles:
 *
 *  1. Agreement on correct input: every registered workload — raw and
 *     after the compiler pass — lints clean (no errors, no warnings).
 *  2. Independence of the reimplementation: the set-dataflow DomSets
 *     must compute the same immediate dominators as the production
 *     Cooper-Harvey-Kennedy DominatorTree on every workload CFG.
 *  3. Sensitivity to corrupted input: a catalogue of distinct
 *     hand-crafted corruptions of a known-good annotated program, each
 *     of which the checker/verifier must reject with the expected rule
 *     and surface as a machine-readable finding.
 *
 * The corruption fixture is a small loop with a conditional arm that
 * carries a value across iterations through both a register and a
 * store/load pair, so the pass emits a representative annotation:
 *
 *   loop:  setDependency 2 2 ; and ; setBranchId 1 ; bne -> then
 *   then:  setDependency 3 1 ; add ; sd ; jal -> latch
 *   latch: setDependency 2 1 ; ld ; add
 *          setDependency 1 2 ; add ; setBranchId 2 ; blt -> loop
 */

#include <gtest/gtest.h>

#include "analysis/annotation_checker.h"
#include "compiler/branch_dep.h"
#include "ir/builder.h"
#include "ir/diagnostics.h"
#include "ir/dominance.h"
#include "ir/verifier.h"
#include "isa/setup_encoding.h"
#include "workloads/workloads.h"

namespace noreba {
namespace {

Diagnostics
lint(const Program &prog, bool requireAnnotations = true)
{
    Diagnostics diag(prog.name());
    verifyProgram(prog, diag);
    CheckOptions opts;
    opts.requireAnnotations = requireAnnotations;
    checkAnnotations(prog, diag, opts);
    return diag;
}

/** Every corruption must produce an error carrying `rule`, and the
 *  finding must round-trip through the JSON report. */
void
expectRejected(const Program &prog, const std::string &rule)
{
    Diagnostics diag = lint(prog);
    EXPECT_GT(diag.errorCount(), 0) << diag.toText();
    EXPECT_TRUE(diag.hasRule(rule)) << "expected rule " << rule << "\n"
                                    << diag.toText();
    EXPECT_NE(diag.toJson().dump(2).find(rule), std::string::npos);
}

TEST(AnnotationChecker, CleanOnAllWorkloads)
{
    for (const std::string &name : workloadNames()) {
        {
            Program prog = buildWorkload(name);
            Diagnostics diag = lint(prog, false);
            EXPECT_EQ(diag.errorCount(), 0) << diag.toText();
            EXPECT_EQ(diag.warningCount(), 0) << diag.toText();
        }
        {
            Program prog = buildWorkload(name);
            runBranchDependencePass(prog);
            Diagnostics diag = lint(prog);
            EXPECT_EQ(diag.errorCount(), 0) << diag.toText();
            EXPECT_EQ(diag.warningCount(), 0) << diag.toText();
        }
    }
}

TEST(AnnotationChecker, DomSetsAgreeWithDominatorTree)
{
    for (const std::string &name : workloadNames()) {
        Program prog = buildWorkload(name);
        const Function &fn = prog.function();
        int n = static_cast<int>(fn.numBlocks());

        DominatorTree dom(fn, DominatorTree::Kind::Dominators);
        DomSets sdom(fn, /*post=*/false);
        DominatorTree pdom(fn, DominatorTree::Kind::PostDominators);
        DomSets spdom(fn, /*post=*/true);

        for (int b = 0; b < n; ++b) {
            EXPECT_EQ(sdom.idom(b), dom.idom(b))
                << name << " idom of bb" << b;
            EXPECT_EQ(spdom.idom(b), pdom.idom(b))
                << name << " pidom of bb" << b;
            for (int a = 0; a < n; ++a) {
                EXPECT_EQ(sdom.dominates(a, b), dom.dominates(a, b))
                    << name << " dom " << a << " " << b;
                EXPECT_EQ(spdom.dominates(a, b), pdom.dominates(a, b))
                    << name << " pdom " << a << " " << b;
            }
        }
    }
}

//
// Corruption catalogue. Block/instruction positions below match the
// annotated fixture layout shown in the file header; the
// FixtureLintsClean test pins that layout so a pass change that moves
// it fails loudly here rather than silently skewing the mutations.
//
constexpr int BB_ENTRY = 0, BB_LOOP = 1, BB_THEN = 2, BB_LATCH = 3;

Program
fixture()
{
    Program prog("fixture");
    uint64_t scratch = prog.allocGlobal(64);
    const AliasRegion R = 1;
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int thenB = b.newBlock("then");
    int latch = b.newBlock("latch");
    int exit = b.newBlock("exit");
    b.at(entry)
        .li(S2, static_cast<int64_t>(scratch))
        .li(S3, 0)
        .li(S4, 100)
        .li(S5, 0)
        .li(S6, 1)
        .fallthrough(loop);
    b.at(loop).andi(T0, S3, 1).bne(T0, ZERO, thenB, latch);
    b.at(thenB).add(S5, S5, S6).sd(S5, S2, 0, R).jump(latch);
    b.at(latch)
        .ld(T1, S2, 0, R)
        .add(S6, S6, T1)
        .addi(S3, S3, 1)
        .blt(S3, S4, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    return prog;
}

Program
annotatedFixture()
{
    Program prog = fixture();
    runBranchDependencePass(prog);
    return prog;
}

TEST(AnnotationChecker, FixtureLintsClean)
{
    Program prog = annotatedFixture();
    Diagnostics diag = lint(prog);
    EXPECT_EQ(diag.errorCount(), 0) << diag.toText();
    EXPECT_EQ(diag.warningCount(), 0) << diag.toText();

    // Pin the layout the corruptions below index into.
    const Function &fn = prog.function();
    ASSERT_EQ(fn.block(BB_LOOP).insts[0].op, Opcode::SET_DEPENDENCY);
    ASSERT_EQ(fn.block(BB_LOOP).insts[2].op, Opcode::SET_BRANCH_ID);
    ASSERT_EQ(fn.block(BB_THEN).insts[0].op, Opcode::SET_DEPENDENCY);
    ASSERT_EQ(setDependencyId(fn.block(BB_THEN).insts[0]), 1);
    ASSERT_EQ(fn.block(BB_LATCH).insts[0].op, Opcode::SET_DEPENDENCY);
    ASSERT_EQ(setDependencyId(fn.block(BB_LATCH).insts[0]), 1);
    ASSERT_EQ(setDependencyNum(fn.block(BB_LATCH).insts[0]), 2);
    ASSERT_TRUE(setDependencySensitive(fn.block(BB_LATCH).insts[0]));
    ASSERT_EQ(fn.block(BB_LATCH).insts[3].op, Opcode::SET_DEPENDENCY);
    ASSERT_EQ(fn.block(BB_LATCH).insts[5].op, Opcode::SET_BRANCH_ID);
}

// 1. A region whose covered instructions consume cross-instance flows
//    loses its order-sensitive bit.
TEST(AnnotationChecker, RejectsClearedOrderSensitiveBit)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LATCH).insts[0];
    dep = makeSetDependency(setDependencyNum(dep), setDependencyId(dep),
                            /*orderSensitive=*/false);
    expectRejected(prog, "missing-order-sensitive");
}

// 2. A region is retargeted at an ID no branch is ever armed with.
TEST(AnnotationChecker, RejectsNeverArmedGuardId)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LATCH).insts[0];
    dep = makeSetDependency(setDependencyNum(dep), 5, true);
    expectRejected(prog, "dead-guard");
}

// 3. A guarding region is dropped entirely, leaving its dependent
//    instructions uncovered.
TEST(AnnotationChecker, RejectsDroppedRegion)
{
    Program prog = annotatedFixture();
    auto &insts = prog.function().block(BB_LATCH).insts;
    insts.erase(insts.begin());
    expectRejected(prog, "uncovered-dependence");
}

// 4. A region is shortened so its last dependent instruction escapes.
TEST(AnnotationChecker, RejectsShortenedRegion)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LATCH).insts[0];
    dep = makeSetDependency(setDependencyNum(dep) - 1,
                            setDependencyId(dep), true);
    expectRejected(prog, "uncovered-dependence");
}

// 5. A region claims more instructions than remain in its block.
TEST(AnnotationChecker, RejectsRegionPastBlockEnd)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LATCH).insts[3];
    dep = makeSetDependency(5, setDependencyId(dep), true);
    expectRejected(prog, "setup-dep-extent");
}

// 6. The arming of an ID is removed while regions still reference it.
TEST(AnnotationChecker, RejectsRemovedArming)
{
    Program prog = annotatedFixture();
    auto &insts = prog.function().block(BB_LOOP).insts;
    ASSERT_EQ(insts[2].op, Opcode::SET_BRANCH_ID);
    insts.erase(insts.begin() + 2);
    expectRejected(prog, "dead-guard");
}

// 7. A setBranchId arms a non-branch instruction.
TEST(AnnotationChecker, RejectsMisplacedSetBranchId)
{
    Program prog = annotatedFixture();
    auto &insts = prog.function().block(BB_ENTRY).insts;
    insts.insert(insts.begin(), makeSetBranchId(3));
    expectRejected(prog, "setup-misplaced-branch-id");
}

// 8. A setDependency names an ID outside the 3-bit hardware table.
TEST(AnnotationChecker, RejectsOutOfRangeId)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LOOP).insts[0];
    dep = makeSetDependency(setDependencyNum(dep), 9, true);
    expectRejected(prog, "setup-id-range");
}

// 9. Two dependency regions overlap in one block.
TEST(AnnotationChecker, RejectsOverlappingRegions)
{
    Program prog = annotatedFixture();
    auto &insts = prog.function().block(BB_LATCH).insts;
    insts.insert(insts.begin() + 1, makeSetDependency(1, 2, true));
    expectRejected(prog, "setup-dep-overlap");
}

// 10. A region covers zero instructions.
TEST(AnnotationChecker, RejectsEmptyRegion)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LOOP).insts[0];
    dep = makeSetDependency(0, setDependencyId(dep), true);
    expectRejected(prog, "setup-dep-empty");
}

// 11. ID 0 ("no dependency") without the strict bit on instructions
//     that do have dependences: nothing would ever gate their commit.
TEST(AnnotationChecker, RejectsLaxIdZeroRegion)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_LATCH).insts[0];
    dep = makeSetDependency(setDependencyNum(dep), 0, true,
                            /*orderStrict=*/false);
    Diagnostics diag = lint(prog);
    EXPECT_GT(diag.errorCount(), 0) << diag.toText();
    EXPECT_TRUE(diag.hasRule("dead-guard")) << diag.toText();
    EXPECT_TRUE(diag.hasRule("setup-dep-id0-lax")) << diag.toText();
}

// 12. A guard is swapped onto the other armed ID: the chain from that
//     branch no longer reaches the store's controlling branch.
TEST(AnnotationChecker, RejectsSwappedGuardId)
{
    Program prog = annotatedFixture();
    Instruction &dep = prog.function().block(BB_THEN).insts[0];
    dep = makeSetDependency(setDependencyNum(dep), 2, true);
    expectRejected(prog, "uncovered-dependence");
}

// 13. A terminator's successor list is corrupted.
TEST(AnnotationChecker, RejectsCorruptedSuccessors)
{
    Program prog = annotatedFixture();
    prog.function().block(BB_LATCH).succs.push_back(BB_THEN);
    expectRejected(prog, "cfg-stale-edges");
}

} // namespace
} // namespace noreba
