/**
 * @file
 * Independent static verification of runBranchDependencePass output —
 * translation validation for the paper's single-BranchID soundness
 * argument (Section 3), without executing anything.
 *
 * The checker re-derives everything it needs from scratch, sharing no
 * analysis code with the compiler pass it validates: nothing under
 * src/analysis/ includes a compiler/ header, ir/dominance.h or
 * ir/reaching_defs.h, noreba_analysis links only noreba_ir, and every
 * fixpoint below is solved by a loop in annotation_checker.cc (the
 * Analysis.SharesNoSolverWithThePass test guards this):
 *
 *  - post-dominance (and dominance) via iterative *set-based* dataflow
 *    (dom(b) = {b} ∪ ⋂ dom(preds)), a different algorithm from the
 *    Cooper-Harvey-Kennedy idom intersection in ir/dominance.cc;
 *  - control dependence from its own reconvergence points;
 *  - data dependence by taint closure over its own reaching-definition
 *    chains and a conservative alias-region memory model;
 *  - the annotation's meaning by abstract interpretation of the BIT:
 *    a forward may-dataflow mapping each compiler BranchID to the set
 *    of static branches whose setBranchId may have armed it last.
 *
 * It then proves, per instruction, that the assigned guard's transitive
 * guard chain (decoded from the setDependency/setBranchId records
 * alone) covers every statically possible control and data dependence,
 * that every guard and chain edge is fresh (guarding block dominates
 * or post-dominates the guarded point), and that cross-instance data
 * flows carry the order-sensitive flag.
 *
 * Rule ids:
 *  - uncovered-dependence     a dependence the guard chain cannot reach
 *  - dead-guard               region guards on an ID no reaching
 *                             setBranchId arms (or on ID 0, non-strict)
 *  - stale-guard              guard's block neither dominates nor
 *                             post-dominates the guarded instruction
 *  - stale-chain-edge         a marking-graph edge whose target is not
 *                             fresh at the source branch
 *  - missing-order-sensitive  cross-instance data flow into a region
 *                             not flagged order sensitive
 *  - ambiguous-branch-id      ID reuse makes several static branches
 *                             possible guards at one site (warning)
 *  - unused-branch-marking    a marked branch no region can resolve to
 *                             (warning)
 *  - fence-in-region          a FENCE covered by a dependency region
 *                             (warning; FENCEs must steer in-order)
 *  - not-annotated            no setup records present (note, or error
 *                             with requireAnnotations)
 */

#ifndef NOREBA_ANALYSIS_ANNOTATION_CHECKER_H
#define NOREBA_ANALYSIS_ANNOTATION_CHECKER_H

#include <cstdint>
#include <vector>

#include "ir/diagnostics.h"
#include "ir/program.h"

namespace noreba {

/**
 * (Post)dominance computed by iterative set dataflow. Kept public so
 * tests can cross-validate it against ir/dominance.cc's CHK trees —
 * two independent algorithms agreeing is the checker's independence
 * argument in action.
 */
class DomSets
{
  public:
    /** Empty sets (dominates() is false everywhere); for containers. */
    DomSets() = default;

    /** @param post  true = post-dominators (reverse CFG, virtual exit) */
    DomSets(const Function &fn, bool post);

    /** Immediate (post)dominator of `bb`; -1 matches DominatorTree. */
    int idom(int bb) const { return idom_[bb]; }

    /** True if `a` (post)dominates `b`. */
    bool dominates(int a, int b) const;

  private:
    int n_ = 0;
    size_t words_ = 0;
    std::vector<uint64_t> sets_;  //!< n_ bitsets of words_ words each
    std::vector<int> idom_;
};

/** Knobs for checkAnnotations(). */
struct CheckOptions
{
    /** Treat a program with no setup records as an error, not a note. */
    bool requireAnnotations = false;
};

/**
 * Statically validate the annotations of `prog` against the checker's
 * own dependence analysis; append findings to `diag`. Returns true
 * when no Error-severity findings were added.
 *
 * Run verifyProgram() first: the checker assumes structurally sane
 * setup records (it skips blocks the verifier would reject).
 */
bool checkAnnotations(const Program &prog, Diagnostics &diag,
                      const CheckOptions &opts = {});

} // namespace noreba

#endif // NOREBA_ANALYSIS_ANNOTATION_CHECKER_H
