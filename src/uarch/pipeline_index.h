/**
 * @file
 * Incrementally maintained pipeline-state indices. Every per-cycle
 * query a commit policy issues — oldest unresolved branch, oldest
 * unchecked memory op, per-site unresolved instance counts, the
 * uncommitted frontier — used to be a linear scan of the master ROB;
 * this layer keeps each answer current at dispatch / resolve / TLB
 * completion / commit / squash time instead, so queries are O(1) or
 * O(log n).
 *
 * Only Core mutates the index (via the on*() hooks, one per pipeline
 * event); policies observe it through PipelineView. The invariants —
 * and how squash recovery restores them — are documented in DESIGN.md
 * ("PipelineView and the pipeline-state indices"); shadowVerify()
 * re-derives every answer from the naive ROB scan and panics on any
 * divergence, which is how the differential test pins the index to the
 * pre-index semantics bit for bit.
 *
 * Storage is window-bounded and allocation-free once warm: the ordered
 * sets are IndexQueues (sorted vectors with lazy erase and squash by
 * suffix truncation) and the idx -> InFlight map is an IdxSlotRing
 * (uarch/index_queue.h).
 */

#ifndef NOREBA_UARCH_PIPELINE_INDEX_H
#define NOREBA_UARCH_PIPELINE_INDEX_H

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/intrusive_list.h"
#include "common/ring.h"
#include "interp/trace.h"
#include "uarch/index_queue.h"
#include "uarch/inflight.h"

namespace noreba {

class PipelineIndex
{
  public:
    /** @name Mutation hooks (Core only, one per pipeline event) @{ */

    /** A renamed instruction entered the window (p->isBranch is set). */
    void onDispatch(InFlight *p);

    /** A dispatched branch resolved in writeback. */
    void onResolve(InFlight *p);

    /** The instruction started (or finished) its page-table check. */
    void onTlbCheck(InFlight *p);

    /** The instruction retired (before resources are released). */
    void onCommit(InFlight *p);

    /** Every uncommitted instruction with idx > `after` was squashed. */
    void onSquash(TraceIdx after);

    /** The pool slot is being recycled (drop the idx mapping). */
    void onFree(InFlight *p);
    /** @} */

    /** @name Queries @{ */

    /** Dispatched unresolved branches: trace idx -> static site PC. */
    using UnresolvedQueue = IndexQueue<uint64_t>;

    /**
     * Oldest in-flight (uncommitted) unresolved branch, or INT32_MAX.
     */
    TraceIdx
    oldestUnresolvedBranch()
    {
        const auto *e = unresolvedUncommitted_.oldest();
        return e ? e->idx : INT32_MAX;
    }

    /**
     * Oldest uncommitted memory op whose TLB check has not completed
     * by `now`, or INT32_MAX. Drains the pending-completion heap.
     */
    TraceIdx
    oldestUncheckedMem(Cycle now)
    {
        drainTlbPending(now);
        const auto *e = uncheckedMem_.oldest();
        return e ? e->idx : INT32_MAX;
    }

    /**
     * All dispatched, still-unresolved branches (committed-early ones
     * included, matching the historical set semantics), oldest first;
     * each live entry holds the trace index and, as its payload, the
     * static site PC.
     */
    const UnresolvedQueue &
    unresolvedBranches() const
    {
        return unresolved_;
    }

    /** Oldest dispatched unresolved branch, or TRACE_NONE. */
    TraceIdx
    oldestUnresolved()
    {
        const auto *e = unresolved_.oldest();
        return e ? e->idx : TRACE_NONE;
    }

    /** Youngest unresolved branch older than `idx`, or TRACE_NONE. */
    TraceIdx
    youngestUnresolvedBefore(TraceIdx idx) const
    {
        const auto *e = unresolved_.predecessor(idx);
        return e ? e->idx : TRACE_NONE;
    }

    /** An unresolved instance of static site `pc` older than `before`. */
    bool
    olderSitePcUnresolved(uint64_t pc, TraceIdx before)
    {
        auto it = unresolvedByPc_.find(pc);
        if (it == unresolvedByPc_.end())
            return false;
        const auto *e = it->second.oldest();
        return e && e->idx < before;
    }

    /** Oldest dispatched-but-uncommitted FENCE, or INT32_MAX. */
    TraceIdx
    oldestFence()
    {
        const auto *e = fences_.oldest();
        return e ? e->idx : INT32_MAX;
    }

    /** In-flight instruction by trace index (nullptr if none). */
    InFlight *
    findInFlight(TraceIdx idx) const
    {
        return inflightByIdx_.get(idx);
    }

    /** @name Uncommitted frontier, program order @{ */
    InFlight *frontierHead() const { return frontier_.head(); }
    static InFlight *frontierNext(const InFlight *p)
    {
        return p->frontNext;
    }
    size_t frontierSize() const { return frontier_.size(); }
    /** @} */
    /** @} */

    /**
     * Differential check: recompute every query from a naive scan of
     * the master ROB and panic on the first divergence. Enabled per
     * cycle by CoreConfig::shadowIndexCheck; this is the oracle the
     * pipeline_index differential test drives.
     */
    void shadowVerify(const Ring<InFlight *> &rob, Cycle now,
                      const TraceView &trace);

  private:
    void drainTlbPending(Cycle now);
    void eraseUnresolved(TraceIdx idx, uint64_t pc);

    using Frontier =
        IntrusiveList<InFlight, &InFlight::frontPrev,
                      &InFlight::frontNext, &InFlight::inFrontier>;

    /** A TLB check that completes at `doneAt` (lazy removal). */
    struct TlbPending
    {
        Cycle doneAt;
        InFlight *p;
        uint64_t gen;
        bool operator>(const TlbPending &o) const
        {
            return doneAt > o.doneAt;
        }
    };

    UnresolvedQueue unresolved_;
    /** The uncommitted subset of unresolved_ (commit barrier). */
    IndexQueue<> unresolvedUncommitted_;
    /** Static site PC -> its unresolved dynamic instances. A bucket is
     *  kept when it empties, so a site allocates once per run. */
    std::unordered_map<uint64_t, IndexQueue<>> unresolvedByPc_;
    /** Uncommitted memory ops not yet past their TLB check. */
    IndexQueue<> uncheckedMem_;
    /** Checks in flight, keyed by completion time. */
    std::priority_queue<TlbPending, std::vector<TlbPending>,
                        std::greater<TlbPending>>
        tlbPending_;
    IndexQueue<> fences_;
    IdxSlotRing<InFlight> inflightByIdx_;
    Frontier frontier_;
};

} // namespace noreba

#endif // NOREBA_UARCH_PIPELINE_INDEX_H
