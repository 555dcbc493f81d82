/**
 * @file
 * Reaching-definitions dataflow over architectural registers. Step C of
 * the NOREBA pass uses the def-use chains this provides to find data
 * dependent instructions ("instructions using the values from control
 * dependent instructions", Section 3).
 */

#ifndef NOREBA_IR_REACHING_DEFS_H
#define NOREBA_IR_REACHING_DEFS_H

#include <cstdint>
#include <vector>

#include "ir/function.h"

namespace noreba {

/** One register definition site. */
struct DefSite
{
    int bb = -1;     //!< defining block
    int idx = -1;    //!< instruction index within the block
    Reg reg = REG_NONE;
};

/**
 * Classic bitvector reaching-definitions analysis. Definition sites are
 * densely numbered; per-block IN sets are computed once, and a Scanner
 * walks a block forward maintaining the exact reaching set per
 * instruction.
 */
class ReachingDefs
{
  public:
    explicit ReachingDefs(const Function &fn);

    int numDefs() const { return static_cast<int>(defs_.size()); }
    const DefSite &def(int id) const { return defs_[id]; }

    /** Dense def id for the instruction at (bb, idx), or -1 if no def. */
    int defIdAt(int bb, int idx) const;

    /**
     * Forward walker over one block. reachingDefs() reports the defs of
     * a register that reach the instruction the scanner currently
     * stands on (i.e. before its own defs take effect).
     */
    class Scanner
    {
      public:
        Scanner(const ReachingDefs &rd, int bb);

        /** Append to `out` the def ids of `reg` reaching this point. */
        void reachingDefs(Reg reg, std::vector<int> &out) const;

        /** Apply the current instruction's def and step forward. */
        void advance();

        bool done() const;

      private:
        const ReachingDefs &rd_;
        int bb_;
        int idx_ = 0;
        std::vector<uint64_t> live_; //!< bitset over def ids
    };

    Scanner scan(int bb) const { return Scanner(*this, bb); }

  private:
    friend class Scanner;

    const Function &fn_;
    std::vector<DefSite> defs_;
    std::vector<std::vector<int>> defsByReg_;      //!< per arch register
    std::vector<std::vector<int>> defIdsByBlock_;  //!< per (bb, instIdx)
    std::vector<std::vector<uint64_t>> blockIn_;   //!< IN bitset per block
    size_t words_ = 0;
};

/**
 * May-alias query between two memory instructions, per the pass's
 * "memory aliasing of variables" analysis. Stack accesses (sp/fp-based,
 * constant offset) are disambiguated exactly by byte range; other
 * accesses are compared by the builder-provided alias region, with
 * ALIAS_UNKNOWN conservatively aliasing everything.
 */
bool mayAlias(const Instruction &a, const Instruction &b);

} // namespace noreba

#endif // NOREBA_IR_REACHING_DEFS_H
