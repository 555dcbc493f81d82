/**
 * @file
 * Commit-policy interface. The core owns fetch/decode/rename/issue and
 * the master ROB ordering; a CommitPolicy decides, each cycle, which
 * in-flight instructions retire and therefore when window resources are
 * reclaimed. All seven commit modes (CommitMode) implement this
 * interface (see the sources in uarch/commit/); a policy has no name
 * of its own, messages print commitModeName(cfg.commitMode).
 *
 * Policies see the pipeline only through PipelineView — a narrow,
 * const-correct facade over the incrementally maintained pipeline-state
 * indices (uarch/pipeline_view.h). They never touch the Core class or
 * the master ROB directly.
 */

#ifndef NOREBA_UARCH_COMMIT_COMMIT_POLICY_H
#define NOREBA_UARCH_COMMIT_COMMIT_POLICY_H

#include <memory>

#include "interp/trace.h"
#include "trace/events.h"
#include "uarch/config.h"
#include "uarch/inflight.h"

namespace noreba {

class PipelineView;

/** Per-cycle commit behaviour. */
class CommitPolicy
{
  public:
    virtual ~CommitPolicy() = default;

    /** Retire eligible instructions (up to the commit width). */
    virtual void commitCycle(PipelineView &view) = 0;

    /** A freshly renamed instruction entered the window. */
    virtual void onDispatch(PipelineView &view, InFlight *inst)
    {
        (void)view;
        (void)inst;
    }

    /** All uncommitted instructions with idx > `after` were squashed. */
    virtual void onSquash(PipelineView &view, TraceIdx after)
    {
        (void)view;
        (void)after;
    }

    /**
     * Does the window have room for another dispatch? The default
     * charges the master ROB; Noreba charges the ROB' instead (steered
     * instructions live in the commit queues).
     */
    virtual bool windowHasSpace(const PipelineView &view) const;

    /**
     * Attribute a cycle that retired fewer instructions than the commit
     * width to exactly one cause. Called by the core after commitCycle
     * with @p head = the oldest uncommitted instruction (never null —
     * the empty-window case is classified by the core itself). The
     * default classification covers the in-order-head policies;
     * guard-chain and queue-structured policies refine it. Must return
     * one of HeadBranch, HeadMem, HeadExec, Fence, or Structural.
     */
    virtual StallCause classifyStall(const PipelineView &view,
                                     const InFlight *head) const;
};

/** Instantiate the policy selected by the config. */
std::unique_ptr<CommitPolicy> makeCommitPolicy(const CoreConfig &cfg);

} // namespace noreba

#endif // NOREBA_UARCH_COMMIT_COMMIT_POLICY_H
