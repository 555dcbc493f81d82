/**
 * @file
 * Incrementally maintained pipeline-state indices. A commit policy's
 * per-cycle queries (oldest unresolved branch, oldest unchecked
 * memory op, per-site unresolved instance counts, the uncommitted
 * frontier) are kept current at dispatch / resolve / commit / squash
 * time, so each is O(1) or O(log n) and none scans the master ROB.
 * Each fact is kept once: a branch is unresolved exactly
 * while unresolved_ holds it, and the barriers and guard-chain walks
 * all read that one queue.
 *
 * Only Core mutates the index (via the on*() hooks, one per pipeline
 * event); policies observe it through PipelineView. The invariants —
 * and how squash recovery restores them — are documented in DESIGN.md
 * ("PipelineView and the pipeline-state indices"); shadowVerify()
 * re-derives every answer from the naive ROB scan and panics on any
 * divergence (tests/shadow_test.cc, CoreConfig::shadowChecks).
 *
 * Storage is window-bounded and allocation-free once warm: the ordered
 * sets are IndexQueues (sorted vectors with lazy erase and squash by
 * suffix truncation, uarch/index_queue.h), and the frontier is an
 * intrusive list through the InFlight nodes. The memory barrier needs
 * no completion-time heap: a TLB check, once done, stays done, so
 * oldestUncheckedMem pops checked ops off its queue's head as it
 * reaches them.
 */

#ifndef NOREBA_UARCH_PIPELINE_INDEX_H
#define NOREBA_UARCH_PIPELINE_INDEX_H

#include <cstdint>
#include <unordered_map>

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
     * by `now`, or INT32_MAX. Head entries whose check is done are
     * popped on the way: `now` never moves back, so they stay done.
     */
    TraceIdx
    oldestUncheckedMem(Cycle now)
    {
        while (const auto *e = uncheckedMem_.oldest()) {
            const InFlight *p = e->payload;
            if (!p->tlbChecked || now < p->tlbDoneAt)
                return e->idx;
            uncheckedMem_.erase(e->idx);
        }
        return INT32_MAX;
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
    using Frontier =
        IntrusiveList<InFlight, &InFlight::frontPrev,
                      &InFlight::frontNext, &InFlight::inFrontier>;

    UnresolvedQueue unresolved_;
    /** Static site PC -> its unresolved dynamic instances. A bucket is
     *  kept when it empties, so a site allocates once per run. */
    std::unordered_map<uint64_t, IndexQueue<>> unresolvedByPc_;
    /** Uncommitted memory ops with their instructions: every op whose
     *  check is not done, plus checked ones not yet popped off the
     *  head. A squash truncates the queue before the squashed slots
     *  are freed and commit erases its entry, so a live payload never
     *  dangles. */
    IndexQueue<InFlight *> uncheckedMem_;
    IndexQueue<> fences_;
    Frontier frontier_;
    uint64_t resolveEpoch_ = 1;
};

} // namespace noreba

#endif // NOREBA_UARCH_PIPELINE_INDEX_H
