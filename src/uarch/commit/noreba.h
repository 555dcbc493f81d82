/**
 * @file
 * The NOREBA commit policy: the Selective ROB of Section 4.
 *
 * Dispatched instructions enter the FIFO ROB' in program order. Each
 * cycle, up to steerWidth instructions leave the ROB' head and are
 * steered to FIFO commit queues exactly per Table 1:
 *
 *  - a *marked* branch (one that carried a setBranchId) registers
 *    CQT[BranchID] = CQ and is steered to its own guard's queue if that
 *    guard is still live in the CQT (keeping dependence chains in FIFO
 *    order), otherwise to a free Branch Commit Queue (or the PR-CQ if
 *    it already resolved);
 *  - any other instruction goes to CQT[Inst.BranchID] if that entry
 *    exists, else to the Primary Commit Queue;
 *  - loads and stores steer only once their page-table access succeeded
 *    (in-order TLB check at the ROB' head).
 *
 * Commit picks the oldest eligible queue head each cycle (branches must
 * have resolved; everything else follows the shared commit conditions).
 * A commit that happens out of program order allocates a CIT entry
 * (an associative capacity, see commitFromQueues); a full CIT stalls
 * that commit. An entry is reclaimed when the branch it waits on
 * commits, or when a squash removes that branch (Section 4.3).
 * Committed branches remove their CQT entry.
 */

#ifndef NOREBA_UARCH_COMMIT_NOREBA_H
#define NOREBA_UARCH_COMMIT_NOREBA_H

#include <algorithm>
#include <utility>
#include <vector>

#include "common/ring.h"
#include "uarch/commit/commit_policy.h"
#include "uarch/pipeline_view.h"

namespace noreba {

class NorebaCommit final : public CommitPolicyDefaults
{
  public:
    explicit NorebaCommit(const CoreConfig &cfg) : srob_(cfg.srob)
    {
        brCqs_.resize(static_cast<size_t>(srob_.numBrCqs));
        // +1: slot 0 tracks the PR-CQ, slots 1..numBrCqs the BR-CQs.
        blocked_.resize(1 + brCqs_.size());
    }

    void onDispatch(PipelineView &, InFlight *p) { robPrime_.push_back(p); }

    bool
    windowHasSpace(const PipelineView &view) const
    {
        // Steered instructions have released their ROB' entry; only the
        // un-steered ones occupy it (Section 4.2: ROB' size equals the
        // baseline ROB).
        return robPrime_.size() <
               static_cast<size_t>(view.config().robEntries);
    }

    void
    commitCycle(PipelineView &view)
    {
        steerStall_ = SteerStall::None;
        commitFromQueues(view);
        steer(view);
    }

    void onSquash(PipelineView &view, TraceIdx after);

    /** ROB', every commit queue, the CQT and the CIT. */
    void shadowCheckCapacities(const PipelineView &view) const;

    StallCause
    classifyStall(const PipelineView &view, const InFlight *head) const
    {
        if (!head->steered) {
            // The oldest uncommitted instruction is un-steered, so it
            // is the ROB' head (everything ahead of it in the FIFO
            // would be older, un-steered, hence uncommitted). Charge
            // whatever kept the steer stage from moving it; with no
            // recorded block it simply missed this cycle's steer
            // bandwidth, a structural limit.
            if (steerStall_ == SteerStall::Tlb)
                return StallCause::HeadMem;
            return StallCause::Structural;
        }
        StallCause base = CommitPolicyDefaults::classifyStall(view, head);
        // A completed, checked queue head only waits on its compiler
        // guard chain (branch C5 / order-sensitive re-validation);
        // CIT-full blocks stay structural.
        if (base == StallCause::Structural &&
            !view.guardChainResolved(head))
            return StallCause::HeadBranch;
        return base;
    }

  private:
    /**
     * Trace index -> int table as a sorted vector: the CQT and the CIT
     * guard groups hold at most a few dozen live entries, so a binary
     * search plus a short memmove beats a tree node allocation per insert.
     */
    class FlatIdxMap
    {
      public:
        using Entry = std::pair<TraceIdx, int>;

        size_t size() const { return v_.size(); }
        std::vector<Entry>::iterator end() { return v_.end(); }

        std::vector<Entry>::iterator
        find(TraceIdx k)
        {
            auto it = lowerBound(k);
            return it != v_.end() && it->first == k ? it : v_.end();
        }

        /** The value at @p k, value-initialised on first use. */
        int &
        operator[](TraceIdx k)
        {
            auto it = lowerBound(k);
            if (it == v_.end() || it->first != k)
                it = v_.insert(it, Entry{k, 0});
            return it->second;
        }

        void erase(std::vector<Entry>::iterator it) { v_.erase(it); }

        /** Drop every entry for which @p pred holds, keeping order. */
        template <typename Pred>
        void
        eraseIf(Pred &&pred)
        {
            v_.erase(std::remove_if(v_.begin(), v_.end(), pred), v_.end());
        }

      private:
        std::vector<Entry>::iterator
        lowerBound(TraceIdx k)
        {
            return std::lower_bound(
                v_.begin(), v_.end(), k,
                [](const Entry &e, TraceIdx key) { return e.first < key; });
        }

        std::vector<Entry> v_;
    };

    enum class SteerStall
    {
        None,
        Tlb,
        Cqt,
        CqFull,
    };

    Ring<InFlight *> &
    queueOf(int cq)
    {
        return cq < 0 ? prCq_ : brCqs_[static_cast<size_t>(cq)];
    }

    size_t
    capacityOf(int cq) const
    {
        return cq < 0 ? static_cast<size_t>(srob_.prCqEntries)
                      : static_cast<size_t>(srob_.brCqEntries);
    }

    bool headEligible(const PipelineView &view, InFlight *p) const;
    void commitFromQueues(PipelineView &view);
    void steer(PipelineView &view);
    /** The ROB' head cannot leave this cycle: record why. */
    void stallSteer(PipelineView &view, SteerStall why);

    /**
     * BR-CQ allocation: prefer an empty queue, then a queue whose head
     * has already resolved (it is draining), then the least-occupied
     * one. Returns -2 if every BR-CQ is full.
     */
    int pickBrCq() const;

    const SelectiveRobConfig srob_;
    Ring<InFlight *> robPrime_;
    Ring<InFlight *> prCq_;
    std::vector<Ring<InFlight *>> brCqs_;
    FlatIdxMap cqt_;        //!< live branch -> commit queue
    FlatIdxMap citByGuard_; //!< CIT entries per guard branch
    int citLive_ = 0;
    /** Per-cycle CIT-stall block flags, [0] = PR-CQ, [1+i] = BR-CQ i. */
    std::vector<char> blocked_;
    /** What (if anything) blocked the steer stage this cycle. */
    SteerStall steerStall_ = SteerStall::None;
};

} // namespace noreba

#endif // NOREBA_UARCH_COMMIT_NOREBA_H
