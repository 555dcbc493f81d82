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
 *    resolved, without queue or table capacity limits.
 *
 * Every policy walks the uncommitted frontier (PipelineView), which is
 * the master ROB minus already-retired entries, in program order; a
 * commit unlinks the visited node, so loops grab the successor first.
 */

#include "uarch/commit/commit_policy.h"

#include "common/logging.h"
#include "uarch/pipeline_view.h"

namespace noreba {

/** Conventional in-order commit. */
class InOrderCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
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

    const char *name() const override { return "InOrder"; }
};

/** Bell & Lipasti non-speculative OoO commit (collapsing ROB). */
class NonSpecOoOCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
    {
        int budget = view.config().commitWidth;
        TraceIdx brBar = view.oldestUnresolvedBranch();
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

    const char *name() const override { return "NonSpecOoO"; }
};

/** Oracle speculative commit (Figure 1 / Figure 6 upper bounds). */
class SpeculativeCommit : public CommitPolicy
{
  public:
    explicit SpeculativeCommit(bool keepMemCondition)
        : keepMemCondition_(keepMemCondition)
    {
    }

    void
    commitCycle(PipelineView &view) override
    {
        int budget = view.config().commitWidth;
        TraceIdx memBar =
            keepMemCondition_ ? view.oldestUncheckedMem() : INT32_MAX;
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
            if ((isMem(p->rec->op) && !view.tlbDone(p)) ||
                (p->rec->op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p))) {
                p = next;
                continue;
            }
            view.commit(p);
            --budget;
            p = next;
        }
    }

    const char *
    name() const override
    {
        return keepMemCondition_ ? "SpeculativeBR" : "SpeculativeFull";
    }

  private:
    const bool keepMemCondition_;
};

/** Compiler reconvergence information with an ideal ROB. */
class IdealReconvCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
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
                (isMem(p->rec->op) && !view.tlbDone(p)) ||
                (p->rec->op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p)) ||
                !view.guardChainResolved(p);
            if (!skip) {
                view.commit(p);
                --budget;
            }
            p = next;
        }
    }

    const char *name() const override { return "IdealReconv"; }

    StallCause
    classifyStall(const PipelineView &view,
                  const InFlight *head) const override
    {
        StallCause base = CommitPolicy::classifyStall(view, head);
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
 * I's epoch) plus every older branch have resolved.
 */
class ValidationBufferCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
    {
        if (nextBranch_.empty())
            buildEpochs(view);
        int budget = view.config().commitWidth;
        TraceIdx brBar = view.oldestUnresolvedBranch();
        TraceIdx memBar = view.oldestUncheckedMem();
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            if (p->idx >= memBar)
                break;
            // The closing initiator (and everything older) resolved?
            // `needed` never decreases along the frontier, so once it
            // reaches the barrier no younger entry can retire either.
            TraceIdx closer = nextBranch_[static_cast<size_t>(p->idx)];
            TraceIdx needed = closer == TRACE_NONE ? p->idx : closer;
            if (needed >= brBar)
                break;
            if (view.commitEligibleBasic(p)) {
                view.commit(p);
                --budget;
            }
            p = next;
        }
    }

    const char *name() const override { return "ValidationBuffer"; }

    StallCause
    classifyStall(const PipelineView &view,
                  const InFlight *head) const override
    {
        StallCause base = CommitPolicy::classifyStall(view, head);
        if (base != StallCause::Structural || nextBranch_.empty())
            return base;
        // A completed head waiting for its epoch to close is stalled on
        // the initiator branch, not on buffer capacity.
        TraceIdx closer = nextBranch_[static_cast<size_t>(head->idx)];
        TraceIdx needed = closer == TRACE_NONE ? head->idx : closer;
        if (needed >= view.oldestUnresolvedBranch())
            return StallCause::HeadBranch;
        return base;
    }

  private:
    void
    buildEpochs(const PipelineView &view)
    {
        const TraceView &trace = view.trace();
        nextBranch_.assign(trace.size(), TRACE_NONE);
        TraceIdx next = TRACE_NONE;
        for (size_t i = trace.size(); i-- > 0;) {
            nextBranch_[i] = next;
            if (trace[i].isBranchSite())
                next = static_cast<TraceIdx>(i);
        }
    }

    std::vector<TraceIdx> nextBranch_;
};

bool
CommitPolicy::windowHasSpace(const PipelineView &view) const
{
    // Collapsing/conventional ROB: an entry is reclaimed the moment it
    // commits, so occupancy is the uncommitted in-flight count.
    return view.windowUsed() < view.config().robEntries;
}

StallCause
CommitPolicy::classifyStall(const PipelineView &view,
                            const InFlight *head) const
{
    // The head is the oldest uncommitted in-flight instruction, so no
    // older FENCE can block it; only the head *being* a not-yet-ripe
    // FENCE charges the fence bucket.
    if (head->rec->op == Opcode::FENCE &&
        !view.commitEligibleBasic(head))
        return StallCause::Fence;
    if (head->isBranch && !(head->resolved && head->completed))
        return StallCause::HeadBranch;
    if (isMem(head->rec->op) && !view.tlbDone(head))
        return StallCause::HeadMem;
    if (!head->completed)
        return StallCause::HeadExec;
    // Completed, resolved, checked — the policy's own structures (or
    // its barriers) are what held it back.
    return StallCause::Structural;
}

std::unique_ptr<CommitPolicy> makeNorebaCommit(const CoreConfig &cfg);

std::unique_ptr<CommitPolicy>
makeCommitPolicy(const CoreConfig &cfg)
{
    switch (cfg.commitMode) {
      case CommitMode::InOrder:
        return std::make_unique<InOrderCommit>();
      case CommitMode::NonSpecOoO:
        return std::make_unique<NonSpecOoOCommit>();
      case CommitMode::Noreba:
        return makeNorebaCommit(cfg);
      case CommitMode::IdealReconv:
        return std::make_unique<IdealReconvCommit>();
      case CommitMode::SpeculativeBR:
        return std::make_unique<SpeculativeCommit>(true);
      case CommitMode::SpeculativeFull:
        return std::make_unique<SpeculativeCommit>(false);
      case CommitMode::ValidationBuffer:
        return std::make_unique<ValidationBufferCommit>();
      default:
        fatal("unknown commit mode");
    }
}

} // namespace noreba
