/**
 * @file
 * The narrow, const-correct pipeline interface commit policies consume.
 * A PipelineView is a non-owning facade over the core's state: the
 * config, clock, trace, stats, commit bitmap and the incrementally
 * maintained PipelineIndex. Policies never see the Core class (no
 * friends, no mutable master-ROB access); the only mutations they can
 * perform are commit() and stats counters.
 *
 * Ordering queries answer against the index in O(1)/O(log n) — see
 * uarch/pipeline_index.h — and the uncommitted frontier replaces the
 * historical "iterate rob(), skip committed" loops: it is exactly the
 * uncommitted subsequence of the master ROB in program order. Branch
 * facts come from one queue, unresolvedBranches(): its oldest entry is
 * the C5 barrier (oldestUnresolved) and a guard-chain element is
 * unresolved while the queue holds it.
 */

#ifndef NOREBA_UARCH_PIPELINE_VIEW_H
#define NOREBA_UARCH_PIPELINE_VIEW_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "interp/trace.h"
#include "uarch/config.h"
#include "uarch/inflight.h"
#include "uarch/pipeline_index.h"
#include "uarch/stats.h"

namespace noreba {

class Core;

class PipelineView
{
  public:
    const CoreConfig &config() const { return *cfg_; }
    Cycle now() const { return *cycle_; }
    const TraceView &trace() const { return *trace_; }
    CoreStats &stats() { return *stats_; }
    const CoreStats &stats() const { return *stats_; }

    /** Dispatched-but-uncommitted instruction count (ROB occupancy). */
    int
    windowUsed() const
    {
        return static_cast<int>(index_->frontierSize());
    }

    /** Oldest not-yet-committed trace index (== size() when done). */
    TraceIdx oldestUncommitted() const { return *cursor_; }

    /** Retire one instruction: resources freed, stats updated. */
    void commit(InFlight *p);

    /** @name Uncommitted frontier (master-ROB order) @{ */

    /** Oldest uncommitted in-flight instruction, or nullptr. */
    InFlight *uncommittedHead() const { return index_->frontierHead(); }

    /** Next older-to-younger uncommitted neighbour, or nullptr. */
    static InFlight *
    uncommittedNext(const InFlight *p)
    {
        return PipelineIndex::frontierNext(p);
    }
    /** @} */

    /**
     * Trace index of the oldest dispatched unresolved branch, or
     * INT32_MAX: the C5 barrier of every policy that never retires an
     * unresolved branch.
     */
    TraceIdx
    oldestUnresolved() const
    {
        return index_->oldestUnresolved();
    }

    /** Oldest in-flight memory op whose TLB check hasn't completed. */
    TraceIdx
    oldestUncheckedMem() const
    {
        return index_->oldestUncheckedMem(*cycle_);
    }

    /** Memory op with its address translated by now. */
    bool
    tlbDone(const InFlight *p) const
    {
        return p->tlbChecked && *cycle_ >= p->tlbDoneAt;
    }

    /** No older uncommitted FENCE blocks this instruction. */
    bool
    fenceAllows(const InFlight *p) const
    {
        return index_->oldestFence() >= p->idx;
    }

    /**
     * Basic commit eligibility shared by all policies: completed (or an
     * ECL-eligible load) and not blocked by an older FENCE.
     */
    bool
    commitEligibleBasic(const InFlight *p) const
    {
        if (!fenceAllows(p))
            return false;
        if (p->rec.op == Opcode::FENCE)
            return p->completed && p->idx == *cursor_;
        if (p->completed)
            return true;
        // ECL: a load may retire once it is guaranteed not to fault
        // (translation succeeded), even before its data returns [DeSC].
        if (cfg_->earlyCommitLoads && isLoad(p->rec.op) && tlbDone(p))
            return true;
        return false;
    }

    /**
     * An older, still-unresolved dynamic instance of the static branch
     * at `pc` exists before `before`. Dependents are marked with the
     * *latest* instance (the BIT holds one sequence number per ID), so
     * instances of one static branch must retire in order for that
     * marking to be sound.
     */
    bool
    olderSitePcUnresolved(uint64_t pc, TraceIdx before) const
    {
        if (!cfg_->srob.enforceInstanceOrder)
            return false;
        return index_->olderSitePcUnresolved(pc, before);
    }

    /**
     * Youngest in-flight unresolved branch older than `idx`, or
     * TRACE_NONE. This is the "most recent unresolved branch" recorded
     * with each CIT entry (Section 4.3).
     */
    TraceIdx
    youngestUnresolvedBefore(TraceIdx idx) const
    {
        return index_->youngestUnresolvedBefore(idx);
    }

    /** Dispatched branches that have not resolved yet, oldest first:
     *  entries carry the trace index and the static site PC as payload
     *  (test oracle). */
    const PipelineIndex::UnresolvedQueue &
    unresolvedBranches() const
    {
        return index_->unresolvedBranches();
    }

    /**
     * The instruction's full compiler guard chain has resolved.
     *
     * The answer is memoized on the InFlight. A true answer is sticky:
     * a squash removes only younger instructions, and no branch older
     * than @p p dispatches after it. A false answer holds until the
     * index's resolve epoch moves (a branch resolved or a squash).
     * Under CoreConfig::shadowChecks every call re-walks the chain and
     * panics if a memoized answer disagrees.
     */
    bool
    guardChainResolved(const InFlight *p) const
    {
        const uint64_t epoch = index_->resolveEpoch();
        const bool memoized = p->chainOk || p->chainEpoch == epoch;
        if (memoized && !cfg_->shadowChecks)
            return p->chainOk;
        const bool ok = walkGuardChain(p);
        panic_if(memoized && ok != p->chainOk,
                 "guard-chain memo of trace idx %d says %d, the walk %d",
                 p->idx, p->chainOk, ok);
        p->chainOk = ok;
        if (!ok)
            p->chainEpoch = epoch;
        return ok;
    }

  private:
    friend class Core;

    bool
    walkGuardChain(const InFlight *p) const
    {
        // Walk the dynamic guard chain. Every element must have
        // resolved. For *order-sensitive* instructions (cross-instance
        // data flows, see the compiler pass), each chain site must
        // additionally have no older unresolved instance: the chain
        // only names the latest instance of each site, but the consumed
        // values may have flowed through older ones. The walk continues
        // through committed elements for that purpose, and stops as
        // soon as no branch older than the element is unresolved
        // (nothing left to wait for).
        if (cfg_->srob.enforceInstanceOrder && p->rec.orderStrict &&
            youngestUnresolvedBefore(p->idx) != TRACE_NONE) {
            // Strict region: the marking could not express this
            // instruction's dependence, so it waits for full
            // Condition 5.
            return false;
        }
        const bool sensitive = p->rec.orderSensitive;
        TraceIdx g = p->rec.guardIdx;
        while (g >= 0) {
            if (index_->oldestUnresolved() > g)
                break; // everything at or below g has resolved
            if (sensitive &&
                olderSitePcUnresolved(trace_->pcOf(static_cast<size_t>(g)),
                                      g))
                return false;
            // A guard is older than @p p, so it was dispatched, and a
            // squash that removed it removed @p p too: an uncommitted
            // guard is unresolved exactly while the index holds it.
            if (!(*committed_)[static_cast<size_t>(g)] &&
                unresolvedBranches().find(g))
                return false;
            g = trace_->guardOf(static_cast<size_t>(g));
        }
        return true;
    }

    const CoreConfig *cfg_ = nullptr;
    const TraceView *trace_ = nullptr;
    const Cycle *cycle_ = nullptr;
    CoreStats *stats_ = nullptr;
    const std::vector<uint8_t> *committed_ = nullptr;
    const TraceIdx *cursor_ = nullptr;
    PipelineIndex *index_ = nullptr;
    Core *core_ = nullptr;
};

} // namespace noreba

#endif // NOREBA_UARCH_PIPELINE_VIEW_H
