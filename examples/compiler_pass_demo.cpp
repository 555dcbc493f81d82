/**
 * @file
 * The paper's Figure 2, reproduced end to end: a simple if-then-else
 * whose store-to-stack arms make the tail of the join block data
 * dependent on the branch while its head stays independent.
 *
 * The demo prints the function before and after the branch dependent
 * code detection pass so the inserted setBranchId/setDependency
 * instructions (and the split of BB4 into an independent region and a
 * dependent region) are directly visible — matching Figure 2's red
 * (control-dependent) and blue (data-dependent) areas.
 *
 * Build & run:  ./build/examples/compiler_pass_demo
 */

#include <cstdio>

#include "analysis/annotation_checker.h"
#include "compiler/branch_dep.h"
#include "ir/builder.h"
#include "ir/dominance.h"
#include "ir/verifier.h"

using namespace noreba;

namespace {

/**
 * Figure 2's code. Stack offsets follow the paper: -40(s0)/-36(s0) are
 * the inputs, -20(s0)/-24(s0) are written differently by either arm,
 * -52/-48/-56(s0) receive the results in BB4.
 */
Program
buildFigure2()
{
    Program prog("figure2");
    IRBuilder b(prog);
    int bb1 = b.newBlock("BB1");
    int bb2 = b.newBlock("BB2"); // then-arm: sub then add
    int bb3 = b.newBlock("BB3"); // else-arm: add then sub
    int bb4 = b.newBlock("BB4"); // the reconvergence point (label L2)

    const AliasRegion R = 0;
    b.at(bb1)
        .li(A5, 1)
        .sw(A5, FP, -40, R)
        .sw(A5, FP, -36, R)
        .beq(A5, ZERO, bb3, bb2); // breqz a5, L1

    b.at(bb2)
        .lw(A4, FP, -40, R)
        .lw(A5, FP, -36, R)
        .sub(A5, A4, A5)
        .sw(A5, FP, -20, R)
        .lw(A4, FP, -40, R)
        .lw(A5, FP, -36, R)
        .add(A5, A4, A5)
        .sw(A5, FP, -24, R)
        .jump(bb4);

    b.at(bb3)
        .lw(A4, FP, -40, R)
        .lw(A5, FP, -36, R)
        .add(A5, A4, A5)
        .sw(A5, FP, -20, R)
        .lw(A4, FP, -40, R)
        .lw(A5, FP, -36, R)
        .sub(A5, A4, A5)
        .sw(A5, FP, -24, R)
        .jump(bb4);

    // BB4 / L2: four branch-independent instructions, then six that
    // read -20(s0)/-24(s0) and are therefore data dependent.
    b.at(bb4)
        .lw(A4, FP, -40, R)
        .lw(A5, FP, -36, R)
        .xor_(A5, A5, A4)
        .sw(A5, FP, -52, R)
        .lw(A5, FP, -20, R)
        .xor_(A5, A5, A4)
        .sw(A5, FP, -48, R)
        .lw(A5, FP, -24, R)
        .xor_(A5, A5, A4)
        .sw(A5, FP, -56, R)
        .halt();

    prog.finalize();
    return prog;
}

} // namespace

int
main()
{
    Program prog = buildFigure2();

    std::printf("=== Figure 2 input (before the pass) ===\n%s\n",
                prog.function().toString().c_str());

    // Step A on its own: the reconvergence point of BB1's branch.
    prog.function().computeCFG();
    DominatorTree pdom(prog.function(),
                       DominatorTree::Kind::PostDominators);
    std::printf("reconvergence point of BB1's branch: %s\n\n",
                prog.function()
                    .block(reconvergenceBlock(pdom, 0))
                    .label.c_str());

    PassResult res = runBranchDependencePass(prog);

    // Static verification of the pass output (src/analysis), which
    // shares no code with the pass it checks.
    Diagnostics diag(prog.name());
    verifyProgram(prog, diag);
    CheckOptions check;
    check.requireAnnotations = true;
    checkAnnotations(prog, diag, check);

    std::printf("=== After branch dependent code detection ===\n%s\n",
                prog.function().toString().c_str());
    std::printf("%s", res.report().c_str());
    std::printf("  static verification: %s\n\n", diag.verdict().c_str());

    for (const auto &site : res.branches) {
        std::printf("branch in %s: reconvergence %s, %d "
                    "control-dependent insts, %d data-dependent insts, "
                    "compiler ID %d\n",
                    prog.function().block(site.bb).label.c_str(),
                    site.reconvBlock >= 0
                        ? prog.function()
                              .block(site.reconvBlock)
                              .label.c_str()
                        : "(none)",
                    site.numControlDeps, site.numDataDeps,
                    site.compilerId);
    }
    std::printf("\nExpected (paper Figure 2): BB2+BB3 control "
                "dependent; BB4 starts with an independent region "
                "(setDependency absent) and ends with a 6-instruction "
                "dependent region (setDependency 6 1).\n");
    return diag.errorCount() == 0 ? 0 : 1;
}
