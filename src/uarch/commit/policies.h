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
 * Every policy retires through one frontier walk, retireFrontier: it
 * visits the uncommitted frontier (PipelineView), the master ROB minus
 * already-retired entries, oldest first, and a policy supplies only
 * its barrier and a per-entry verdict. The policies are defined here,
 * in a header, because only the core's per-mode simulate loops
 * (core.cc) instantiate them.
 */

#ifndef NOREBA_UARCH_COMMIT_POLICIES_H
#define NOREBA_UARCH_COMMIT_POLICIES_H

#include <algorithm>

#include "uarch/commit/commit_policy.h"
#include "uarch/pipeline_view.h"

namespace noreba {

/** What a policy's commit walk does with one frontier entry. */
enum class Retire
{
    Commit, //!< retire it
    Skip,   //!< leave it, look at the next younger entry
    Stop,   //!< leave it and end this cycle's walk
};

/**
 * Walk the uncommitted frontier oldest first, at most commitWidth
 * retirements and only while the entry is older than @p barrier (no
 * younger entry can retire past a C2/C5 barrier either). A commit
 * unlinks the visited node, so the walk grabs the successor first.
 */
template <typename Verdict>
void
retireFrontier(PipelineView &view, TraceIdx barrier, Verdict &&verdict)
{
    int budget = view.config().commitWidth;
    for (InFlight *p = view.uncommittedHead();
         p && budget > 0 && p->idx < barrier;) {
        InFlight *next = PipelineView::uncommittedNext(p);
        switch (verdict(p)) {
          case Retire::Commit:
            view.commit(p);
            --budget;
            break;
          case Retire::Skip:
            break;
          case Retire::Stop:
            return;
        }
        p = next;
    }
}

/** Conventional in-order commit. */
class InOrderCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        retireFrontier(view, INT32_MAX, [&](const InFlight *p) {
            return view.commitEligibleBasic(p) ? Retire::Commit
                                               : Retire::Stop;
        });
    }
};

/** Bell & Lipasti non-speculative OoO commit (collapsing ROB). */
class NonSpecOoOCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        // Conditions 2/4/5: no older unresolved branch, no older
        // untranslated memory op (RISC-V FP does not trap). The
        // barrier instruction itself cannot be eligible yet, so
        // stopping at it is exact.
        TraceIdx barrier = std::min(view.oldestUnresolved(),
                                    view.oldestUncheckedMem());
        retireFrontier(view, barrier, [&](const InFlight *p) {
            return view.commitEligibleBasic(p) ? Retire::Commit
                                               : Retire::Skip;
        });
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
        TraceIdx memBar =
            KeepMemCondition ? view.oldestUncheckedMem() : INT32_MAX;
        retireFrontier(view, memBar, [&](const InFlight *p) {
            // Oracle resource recovery: C1/C3 relaxed (footnote 1), C5
            // dropped entirely; only the memory condition (when kept)
            // and fences gate reclamation.
            if (!view.fenceAllows(p))
                return Retire::Stop;
            if ((isMem(p->rec.op) && !view.tlbDone(p)) ||
                (p->rec.op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p)))
                return Retire::Skip;
            return Retire::Commit;
        });
    }
};

/** Compiler reconvergence information with an ideal ROB. */
class IdealReconvCommit final : public CommitPolicyDefaults
{
  public:
    void
    commitCycle(PipelineView &view)
    {
        TraceIdx memBar = view.oldestUncheckedMem();
        retireFrontier(view, memBar, [&](const InFlight *p) {
            if (!view.fenceAllows(p))
                return Retire::Stop;
            // Same commit conditions as Noreba (C1/C3 relaxed, guards
            // from the compiler), but with ideal reordering hardware.
            // The guard chain, the costly test, goes last.
            bool skip =
                (p->isBranch && !(p->resolved && p->completed)) ||
                (isMem(p->rec.op) && !view.tlbDone(p)) ||
                (p->rec.op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p)) ||
                !view.guardChainResolved(p);
            return skip ? Retire::Skip : Retire::Commit;
        });
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
        // Past either barrier no younger entry can retire either.
        TraceIdx barrier =
            std::min(epochBarrier(view), view.oldestUncheckedMem());
        retireFrontier(view, barrier, [&](const InFlight *p) {
            return view.commitEligibleBasic(p) ? Retire::Commit
                                               : Retire::Skip;
        });
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
