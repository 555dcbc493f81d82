/**
 * @file
 * The non-Selective-ROB commit policies of Figures 1 and 6:
 *
 *  - InOrderCommit: the conventional baseline (InO-C);
 *  - NonSpecOoOCommit: Bell & Lipasti's safe conditions over a
 *    collapsing ROB — commit anything completed whose older branches
 *    are all resolved and older memory ops are all past translation;
 *  - SpeculativeCommit: the two oracle upper bounds — SpeculativeBR
 *    (drop the branch condition entirely) and Speculative (commit
 *    anything completed), both with an ideal ROB and no misspeculation
 *    penalty, exactly as the paper evaluates them;
 *  - IdealReconvCommit: the paper's compiler information with an ideal
 *    ROB — commit anything completed whose *compiler guard chain* has
 *    resolved, without queue or table capacity limits;
 *  - ValidationBufferCommit: Petit et al.'s epoch-based retirement.
 *
 * Every policy walks the uncommitted frontier (PipelineView), which is
 * the master ROB minus already-retired entries, in program order; a
 * commit unlinks the visited node, so loops grab the successor first.
 * The policies are defined here, in a header, because only the core's
 * per-mode simulate loops (core.cc) instantiate them.
 */

#ifndef NOREBA_UARCH_COMMIT_POLICIES_H
#define NOREBA_UARCH_COMMIT_POLICIES_H

#include "uarch/commit/commit_policy.h"
#include "uarch/pipeline_view.h"

namespace noreba {

/** Conventional in-order commit. */
class InOrderCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        int budget = view.config().commitWidth;
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0 || !view.commitEligibleBasic(p))
                break;
            view.commit(p);
            --budget;
            p = next;
        }
    }
};

/** Bell & Lipasti non-speculative OoO commit (collapsing ROB). */
class NonSpecOoOCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        int budget = view.config().commitWidth;
        TraceIdx brBar = view.oldestUnresolved();
        TraceIdx memBar = view.oldestUncheckedMem();
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            // Conditions 2/4/5: no older unresolved branch, no older
            // untranslated memory op (RISC-V FP does not trap). The
            // barrier instruction itself cannot be eligible yet, so a
            // >= break is exact.
            if (p->idx >= brBar || p->idx >= memBar)
                break;
            if (view.commitEligibleBasic(p)) {
                view.commit(p);
                --budget;
            }
            p = next;
        }
    }
};

/**
 * Oracle speculative commit (Figure 1 / Figure 6 upper bounds):
 * SpeculativeBR keeps the memory condition, SpeculativeFull drops it.
 */
template <bool KeepMemCondition>
class SpeculativeCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        int budget = view.config().commitWidth;
        TraceIdx memBar =
            KeepMemCondition ? view.oldestUncheckedMem() : INT32_MAX;
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            if (p->idx >= memBar)
                break;
            // Oracle resource recovery: C1/C3 relaxed (footnote 1), C5
            // dropped entirely; only the memory condition (when kept)
            // and fences gate reclamation.
            if (!view.fenceAllows(p))
                break;
            if ((isMem(p->rec.op) && !view.tlbDone(p)) ||
                (p->rec.op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p))) {
                p = next;
                continue;
            }
            view.commit(p);
            --budget;
            p = next;
        }
    }
};

/** Compiler reconvergence information with an ideal ROB. */
class IdealReconvCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        int budget = view.config().commitWidth;
        TraceIdx memBar = view.oldestUncheckedMem();
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            if (p->idx >= memBar)
                break;
            if (!view.fenceAllows(p))
                break;
            // Same commit conditions as Noreba (C1/C3 relaxed, guards
            // from the compiler), but with ideal reordering hardware.
            bool skip =
                (p->isBranch && !(p->resolved && p->completed)) ||
                (isMem(p->rec.op) && !view.tlbDone(p)) ||
                (p->rec.op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p)) ||
                !view.guardChainResolved(p);
            if (!skip) {
                view.commit(p);
                --budget;
            }
            p = next;
        }
    }

    StallCause
    classifyStall(const PipelineView &view, const InFlight *head) const
    {
        StallCause base = CommitPolicyDefaults::classifyStall(view, head);
        // With no queue limits, a completed head only waits on its
        // compiler guard chain — charge the branches, not hardware.
        if (base == StallCause::Structural &&
            !view.guardChainResolved(head))
            return StallCause::HeadBranch;
        return base;
    }
};

/**
 * Validation Buffer (Petit/Sahuquillo/Lopez/Ubal/Duato, IEEE TC 2009;
 * the paper's Table 4 row "A complexity-effective out-of-order
 * retirement microarchitecture"). Speculative instructions (branches)
 * delimit *epochs*: when the epoch initiator at the buffer's head
 * resolves, every instruction of the preceding epoch is released. No
 * compiler information and no per-instruction checks — the buffer only
 * tracks epoch boundaries, which is the design's complexity argument.
 *
 * Model: instruction I retires once it has completed, its memory
 * condition holds, and the next branch after I (the initiator closing
 * I's epoch) plus every older branch have resolved. With brBar the
 * oldest unresolved branch, that holds exactly when some branch site
 * lies strictly between I and brBar, i.e. when I is older than the
 * youngest branch site older than brBar (epochBarrier).
 */
class ValidationBufferCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        int budget = view.config().commitWidth;
        TraceIdx epochBar = epochBarrier(view);
        TraceIdx memBar = view.oldestUncheckedMem();
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            // Past either barrier no younger entry can retire either.
            if (p->idx >= memBar || p->idx >= epochBar)
                break;
            if (view.commitEligibleBasic(p)) {
                view.commit(p);
                --budget;
            }
            p = next;
        }
    }

    StallCause
    classifyStall(const PipelineView &view, const InFlight *head) const
    {
        StallCause base = CommitPolicyDefaults::classifyStall(view, head);
        // A completed head waiting for its epoch to close is stalled on
        // the initiator branch, not on buffer capacity.
        if (base == StallCause::Structural &&
            head->idx >= epochBarrier(view))
            return StallCause::HeadBranch;
        return base;
    }

  private:
    /**
     * The youngest branch site older than the oldest unresolved branch
     * (INT32_MAX when no branch is unresolved, TRACE_NONE when no
     * branch site precedes it): every instruction older than it sits in
     * a closed epoch.
     */
    static TraceIdx
    epochBarrier(const PipelineView &view)
    {
        TraceIdx brBar = view.oldestUnresolved();
        if (brBar == INT32_MAX)
            return INT32_MAX;
        const TraceView &trace = view.trace();
        TraceIdx i = brBar - 1;
        while (i >= 0 && !trace.isBranchSiteAt(static_cast<size_t>(i)))
            --i;
        return i; // TRACE_NONE (-1) when the scan runs off the trace
    }
};

} // namespace noreba

#endif // NOREBA_UARCH_COMMIT_POLICIES_H
