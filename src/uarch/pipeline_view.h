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
 * uncommitted subsequence of the master ROB in program order.
 */

#ifndef NOREBA_UARCH_PIPELINE_VIEW_H
#define NOREBA_UARCH_PIPELINE_VIEW_H

#include <cstdint>
#include <vector>

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
    int windowUsed() const { return *windowUsed_; }

    /** Oldest not-yet-committed trace index (== size() when done). */
    TraceIdx oldestUncommitted() const { return *cursor_; }

    bool
    isCommitted(TraceIdx idx) const
    {
        return (*committed_)[static_cast<size_t>(idx)] != 0;
    }

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

    /** Trace index of the oldest in-flight unresolved branch. */
    TraceIdx
    oldestUnresolvedBranch() const
    {
        return index_->oldestUnresolvedBranch();
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
        if (p->rec->op == Opcode::FENCE)
            return p->completed && p->idx == *cursor_;
        if (p->completed)
            return true;
        // ECL: a load may retire once it is guaranteed not to fault
        // (translation succeeded), even before its data returns [DeSC].
        if (cfg_->earlyCommitLoads && isLoad(p->rec->op) && tlbDone(p))
            return true;
        return false;
    }

    /**
     * An older, still-unresolved dynamic instance of the same static
     * branch exists. Dependents are marked with the *latest* instance
     * (the BIT holds one sequence number per ID), so instances of one
     * static branch must retire in order for that marking to be sound.
     */
    bool
    olderSamePcUnresolved(const InFlight *f) const
    {
        return olderSitePcUnresolved(f->rec->pc, f->idx);
    }

    /** Same check by static site PC, for (possibly committed) chain
     *  elements older than `before`. */
    bool
    olderSitePcUnresolved(uint64_t pc, TraceIdx before) const
    {
        if (!cfg_->srob.enforceInstanceOrder)
            return false;
        return index_->olderSitePcUnresolved(pc, before);
    }

    /** Find an in-flight instruction by trace index (nullptr if none). */
    InFlight *
    findInFlight(TraceIdx idx) const
    {
        return index_->findInFlight(idx);
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

    /** The instruction's full compiler guard chain has resolved. */
    bool
    guardChainResolved(const InFlight *p) const
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
        if (cfg_->srob.enforceInstanceOrder && p->rec->orderStrict &&
            youngestUnresolvedBefore(p->idx) != TRACE_NONE) {
            // Strict region: the marking could not express this
            // instruction's dependence, so it waits for full
            // Condition 5.
            return false;
        }
        const bool sensitive = p->rec->orderSensitive;
        TraceIdx g = p->rec->guardIdx;
        while (g >= 0) {
            TraceIdx oldest = index_->oldestUnresolved();
            if (oldest == TRACE_NONE || oldest > g)
                break; // everything at or below g has resolved
            const TraceRecord &rec = (*trace_)[static_cast<size_t>(g)];
            if (sensitive && olderSitePcUnresolved(rec.pc, g))
                return false;
            if (!(*committed_)[static_cast<size_t>(g)]) {
                InFlight *f = findInFlight(g);
                if (!f)
                    return false; // guard squashed: treat as unresolved
                if (!f->resolved)
                    return false;
            }
            g = rec.guardIdx;
        }
        return true;
    }

  private:
    friend class Core;

    const CoreConfig *cfg_ = nullptr;
    const TraceView *trace_ = nullptr;
    const Cycle *cycle_ = nullptr;
    CoreStats *stats_ = nullptr;
    const std::vector<uint8_t> *committed_ = nullptr;
    const TraceIdx *cursor_ = nullptr;
    const int *windowUsed_ = nullptr;
    PipelineIndex *index_ = nullptr;
    Core *core_ = nullptr;
};

} // namespace noreba

#endif // NOREBA_UARCH_PIPELINE_VIEW_H
