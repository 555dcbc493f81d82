/**
 * @file
 * Incrementally maintained pipeline-state indices. Every per-cycle
 * query a commit policy issues — oldest unresolved branch, oldest
 * unchecked memory op, per-site unresolved instance counts, the
 * uncommitted frontier — used to be a linear scan of the master ROB;
 * this layer keeps each answer current at dispatch / resolve / TLB
 * completion / commit / squash time instead, so queries are O(1) or
 * O(log n). Each fact is kept once: a branch is unresolved exactly
 * while unresolved_ holds it, and the barriers and guard-chain walks
 * all read that one queue.
 *
 * Only Core mutates the index (via the on*() hooks, one per pipeline
 * event); policies observe it through PipelineView. The invariants —
 * and how squash recovery restores them — are documented in DESIGN.md
 * ("PipelineView and the pipeline-state indices"); shadowVerify()
 * re-derives every answer from the naive ROB scan and panics on any
 * divergence, which is how the shadow differential test
 * (tests/shadow_test.cc, CoreConfig::shadowChecks) pins the index to
 * the pre-index semantics bit for bit.
 *
 * Storage is window-bounded and allocation-free once warm: the ordered
 * sets are IndexQueues (sorted vectors with lazy erase and squash by
 * suffix truncation, uarch/index_queue.h), the frontier is an
 * intrusive list through the InFlight nodes, and the TLB-completion
 * heap is drained on every push, so it holds only the checks still in
 * flight.
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

    /** The instruction started its page-table check at @p now (it
     *  completes at p->tlbDoneAt). Drains the checks already done by
     *  @p now first, so the pending heap holds only checks in flight. */
    void onTlbCheck(InFlight *p, Cycle now);

    /** The instruction retired (before resources are released). */
    void onCommit(InFlight *p);

    /** Every uncommitted instruction with idx > `after` was squashed. */
    void onSquash(TraceIdx after);
    /** @} */

    /** @name Queries @{ */

    /** Dispatched unresolved branches: trace idx -> static site PC. */
    using UnresolvedQueue = IndexQueue<uint64_t>;

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

    /**
     * Oldest dispatched unresolved branch, or INT32_MAX. Under every
     * policy that never retires an unresolved branch (all but the two
     * speculative oracles), this is the C5 commit barrier.
     */
    TraceIdx
    oldestUnresolved()
    {
        const auto *e = unresolved_.oldest();
        return e ? e->idx : INT32_MAX;
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

    /** Bumped by every resolve and squash: between bumps, no
     *  guard-chain answer can change (never 0). */
    uint64_t resolveEpoch() const { return resolveEpoch_; }

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
     * cycle by CoreConfig::shadowChecks; this is one of the two oracles
     * the shadow differential test drives.
     */
    void shadowVerify(const Ring<InFlight *> &rob, Cycle now,
                      const TraceView &trace);

  private:
    void drainTlbPending(Cycle now);

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
    Frontier frontier_;
    uint64_t resolveEpoch_ = 1;
};

} // namespace noreba

#endif // NOREBA_UARCH_PIPELINE_INDEX_H
