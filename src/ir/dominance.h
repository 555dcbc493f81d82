/**
 * @file
 * Dominator and post-dominator trees over a Function's CFG, using the
 * Cooper-Harvey-Kennedy iterative algorithm. The post-dominator tree
 * drives step A of the NOREBA pass: the reconvergence point of a branch
 * is the immediate post-dominator of its block (Section 3, citing
 * Chou/Fung/Shen and Rotenberg/Smith).
 *
 * A virtual exit node is added so that functions with several HALT
 * blocks (or none reachable on some path) still have a rooted
 * post-dominator tree; blocks that cannot reach any exit (infinite
 * loops) get no immediate post-dominator.
 */

#ifndef NOREBA_IR_DOMINANCE_H
#define NOREBA_IR_DOMINANCE_H

#include <vector>

#include "ir/function.h"

namespace noreba {

/**
 * Dominator or post-dominator tree. For post-dominators the CFG is
 * reversed and rooted at a virtual exit.
 */
class DominatorTree
{
  public:
    enum class Kind { Dominators, PostDominators };

    DominatorTree(const Function &fn, Kind kind);

    /**
     * Immediate (post)dominator of block `bb`, or -1 when it is the
     * root, unreachable, or (for post-dominators) only the virtual exit
     * post-dominates it.
     */
    int idom(int bb) const { return idom_[bb]; }

    /** True if block `a` (post)dominates block `b`. */
    bool dominates(int a, int b) const;

    /**
     * Position of `bb` in the reverse postorder of the walk (the CFG
     * from the entry, or the reverse CFG from the exits), counting
     * from 0; -1 when the walk never reaches it.
     */
    int rpoRank(int bb) const { return rpoRank_[bb]; }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
    std::vector<int> idom_;    //!< immediate dominator per block (-1 none)
    std::vector<int> rpoRank_; //!< reverse-postorder position (-1 none)
};

/**
 * Convenience: the reconvergence block of a conditional (or indirect)
 * branch terminating block `bb`, i.e. its immediate post-dominator.
 * Returns -1 when no reconvergence point exists in the function.
 */
int reconvergenceBlock(const DominatorTree &pdom, int bb);

} // namespace noreba

#endif // NOREBA_IR_DOMINANCE_H
