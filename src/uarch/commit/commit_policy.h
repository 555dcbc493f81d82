/**
 * @file
 * What a commit policy is. The core owns fetch/decode/rename/issue and
 * the master ROB ordering; a commit policy decides, each cycle, which
 * in-flight instructions retire and therefore when window resources
 * are reclaimed. Each of the seven commit modes (CommitMode) is one
 * policy class: uarch/commit/policies.h and uarch/commit/noreba.h.
 *
 * A policy is a plain class with the members of CommitPolicyDefaults
 * plus its own commitCycle(PipelineView &). It inherits the defaults
 * and hides the ones it refines. Core::run switches once on
 * cfg.commitMode into a simulate loop instantiated for that policy
 * type (Core::runWith), so every policy call binds statically and the
 * small ones inline; there is no dynamic dispatch. A policy has no
 * name of its own; messages print commitModeName(cfg.commitMode).
 *
 * Policies see the pipeline only through PipelineView — a narrow,
 * const-correct facade over the incrementally maintained pipeline-state
 * indices (uarch/pipeline_view.h). They never touch the Core class or
 * the master ROB directly.
 */

#ifndef NOREBA_UARCH_COMMIT_COMMIT_POLICY_H
#define NOREBA_UARCH_COMMIT_COMMIT_POLICY_H

#include "interp/trace.h"
#include "trace/events.h"
#include "uarch/inflight.h"
#include "uarch/pipeline_view.h"

namespace noreba {

/**
 * Shadow check (CoreConfig::shadowChecks): panic when the structure
 * @p what holds more than its configured @p capacity entries.
 */
inline void
shadowCheckCapacity(const PipelineView &view, const char *what,
                    size_t used, int capacity)
{
    panic_if(used > static_cast<size_t>(capacity),
             "shadow capacity: %s holds %zu entries, capacity %d "
             "(cycle %llu)",
             what, used, capacity,
             static_cast<unsigned long long>(view.now()));
}

/** The per-cycle commit behaviour every policy starts from. */
struct CommitPolicyDefaults
{
    /** A freshly renamed instruction entered the window. */
    void onDispatch(PipelineView &, InFlight *) {}

    /** All uncommitted instructions with idx > `after` were squashed. */
    void onSquash(PipelineView &, TraceIdx) {}

    /**
     * Does the window have room for another dispatch? The default
     * charges the master ROB; Noreba charges the ROB' instead (steered
     * instructions live in the commit queues).
     */
    bool
    windowHasSpace(const PipelineView &view) const
    {
        // Collapsing/conventional ROB: an entry is reclaimed the moment
        // it commits, so occupancy is the uncommitted in-flight count.
        return view.windowUsed() < view.config().robEntries;
    }

    /**
     * Shadow check at the end of every cycle: no structure the policy
     * sizes holds more than its capacity. The default checks the
     * window windowHasSpace() charges.
     */
    void
    shadowCheckCapacities(const PipelineView &view) const
    {
        shadowCheckCapacity(view, "ROB",
                            static_cast<size_t>(view.windowUsed()),
                            view.config().robEntries);
    }

    /**
     * Attribute a cycle that retired fewer instructions than the commit
     * width to exactly one cause. Called by the core after commitCycle
     * with @p head = the oldest uncommitted instruction (never null —
     * the empty-window case is classified by the core itself). The
     * default classification covers the in-order-head policies;
     * guard-chain and queue-structured policies refine it. Must return
     * one of HeadBranch, HeadMem, HeadExec, Fence, or Structural.
     */
    StallCause
    classifyStall(const PipelineView &view, const InFlight *head) const
    {
        // The head is the oldest uncommitted in-flight instruction, so
        // no older FENCE can block it; only the head *being* a
        // not-yet-ripe FENCE charges the fence bucket.
        if (head->rec.op == Opcode::FENCE &&
            !view.commitEligibleBasic(head))
            return StallCause::Fence;
        if (head->isBranch && !(head->resolved && head->completed))
            return StallCause::HeadBranch;
        if (isMem(head->rec.op) && !view.tlbDone(head))
            return StallCause::HeadMem;
        if (!head->completed)
            return StallCause::HeadExec;
        // Completed, resolved, checked — the policy's own structures
        // (or its barriers) are what held it back.
        return StallCause::Structural;
    }
};

} // namespace noreba

#endif // NOREBA_UARCH_COMMIT_COMMIT_POLICY_H
