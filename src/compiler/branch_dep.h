/**
 * @file
 * The NOREBA "branch dependent code detection" pass (paper Section 3).
 *
 * For every (conditional or indirect) branch the pass:
 *   A. finds the branch reconvergence point — the immediate
 *      post-dominator of the branch's block;
 *   B. finds control-dependent instructions — everything in blocks
 *      reachable between the branch and its reconvergence point;
 *   C. finds data-dependent instructions — the transitive closure over
 *      def-use chains and memory aliasing of values produced under the
 *      branch;
 *   D. marks branches and dependent regions by inserting setBranchId /
 *      setDependency setup instructions into the code.
 *
 * Each instruction is assigned a *single* dependent branch (its guard;
 * "either the most recent, or an older branch" in the paper's words).
 * When an instruction depends on several branches whose guard chains do
 * not already cover each other, the pass merges the chains (adding
 * artificial guard edges between branches) so that committing after the
 * assigned guard transitively implies every true dependence has
 * committed. This keeps the hardware's single-BranchID-per-instruction
 * marking sound; the dependence oracle (tests/dependence_oracle.h)
 * validates the end-to-end property over the registry and fuzzed CFGs.
 */

#ifndef NOREBA_COMPILER_BRANCH_DEP_H
#define NOREBA_COMPILER_BRANCH_DEP_H

#include <string>
#include <vector>

#include "ir/program.h"

namespace noreba {

/** Analysis results for one branch site. */
struct BranchSite
{
    int bb = -1;             //!< block terminated by the branch
    int instIdx = -1;        //!< index of the branch within the block
    int globalIdx = -1;      //!< layout-order index of the branch
    int compilerId = 0;      //!< assigned setBranchId ID (0 = unmarked)
    int reconvBlock = -1;    //!< immediate post-dominator (-1 = none)
    int guard = -1;          //!< static index of the branch this branch
                             //!< itself is marked dependent on (-1 none)
    std::vector<int> controlBlocks; //!< control-dependent blocks
    int numControlDeps = 0;  //!< control-dependent instruction count
    int numDataDeps = 0;     //!< data-dependent instruction count (beyond
                             //!< the control region)
};

/** Full pass result: per-branch analysis + per-instruction guards. */
struct PassResult
{
    std::vector<BranchSite> branches;

    /**
     * Guard (index into `branches`) per *pre-annotation* global
     * instruction index, or -1 for branch-independent instructions.
     */
    std::vector<int> guardOfInst;

    /** @name Step-D statistics @{ */
    int numMarkedBranches = 0;
    int numRegions = 0;
    int numSetupInsts = 0;
    size_t instsBefore = 0;
    size_t instsAfter = 0;
    int numChainMerges = 0; //!< multi-dependence serializations applied
    int numStrictRegions = 0; //!< uncoverable deps forced strict
    /** @} */

    /** Human-readable summary. */
    std::string report() const;
};

/**
 * Run the branch dependent code detection pass on `prog`'s function.
 * The function is rewritten in place with setup instructions inserted
 * and the program re-finalized.
 */
PassResult runBranchDependencePass(Program &prog);

} // namespace noreba

#endif // NOREBA_COMPILER_BRANCH_DEP_H
