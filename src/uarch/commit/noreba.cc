#include "uarch/commit/noreba.h"

#include "common/logging.h"

namespace noreba {

void
NorebaCommit::onSquash(PipelineView &view, TraceIdx after)
{
    auto purge = [after](Ring<InFlight *> &q) {
        while (!q.empty() && q.back()->idx > after)
            q.pop_back();
    };
    purge(robPrime_);
    purge(prCq_);
    for (auto &q : brCqs_)
        purge(q);
    // Live CQT entries of squashed branches disappear with them.
    cqt_.eraseIf([after](const FlatIdxMap::Entry &e) {
        return e.first > after;
    });
    // So are the CIT groups they guarded: a guard above `after` is
    // uncommitted (a committed guard freed its group in
    // commitFromQueues), so the squash removed it.
    citByGuard_.eraseIf([&](const FlatIdxMap::Entry &e) {
        if (e.first <= after)
            return false;
        citLive_ -= e.second;
        view.stats().citOps += static_cast<uint64_t>(e.second);
        return true;
    });
}

void
NorebaCommit::shadowCheckCapacities(const PipelineView &view) const
{
    shadowCheckCapacity(view, "ROB'", robPrime_.size(),
                        view.config().robEntries);
    shadowCheckCapacity(view, "PR-CQ", prCq_.size(), srob_.prCqEntries);
    for (const Ring<InFlight *> &q : brCqs_)
        shadowCheckCapacity(view, "BR-CQ", q.size(), srob_.brCqEntries);
    shadowCheckCapacity(view, "CQT", cqt_.size(), CQT_ENTRIES);
    shadowCheckCapacity(view, "CIT", static_cast<size_t>(citLive_),
                        srob_.citEntries);
}

bool
NorebaCommit::headEligible(const PipelineView &view, InFlight *p) const
{
    if (p->isBranch) {
        // A branch must itself be on a proven path before it
        // commits: its compiler guard chain has to be resolved
        // (C5 applied to the branch's own marked dependence).
        return p->resolved && p->completed &&
               view.commitEligibleBasic(p) &&
               view.guardChainResolved(p);
    }
    // Order-sensitive instructions (cross-instance data flows) must
    // re-validate their chain sites at the head: sitting behind the
    // guard in the FIFO only proves the *latest* instance committed.
    if ((p->rec.orderSensitive || p->rec.orderStrict) &&
        !view.guardChainResolved(p))
        return false;
    // Footnote-1 C1/C3 relaxation: commit is non-speculative
    // *resource recovery*. Once an instruction cannot trap (memory
    // ops past their page-table check; RISC-V FP accrues into fcsr)
    // and its dependence queue has cleared, its window resources
    // are reclaimed even before the result returns; execution
    // completes in the background.
    if (isMem(p->rec.op))
        return view.tlbDone(p) && view.fenceAllows(p);
    return view.fenceAllows(p) &&
           (p->rec.op != Opcode::FENCE || view.commitEligibleBasic(p));
}

void
NorebaCommit::commitFromQueues(PipelineView &view)
{
    int budget = view.config().commitWidth;
    const int nq = static_cast<int>(brCqs_.size());
    std::fill(blocked_.begin(), blocked_.end(), 0);

    while (budget > 0) {
        InFlight *best = nullptr;
        int bestCq = -2;
        for (int cq = -1; cq < nq; ++cq) {
            if (blocked_[static_cast<size_t>(cq + 1)])
                continue;
            auto &q = queueOf(cq);
            if (q.empty())
                continue;
            InFlight *h = q.front();
            if (!headEligible(view, h))
                continue;
            if (!best || h->idx < best->idx) {
                best = h;
                bestCq = cq;
            }
        }
        if (!best)
            break;

        // Out-of-order commits must secure a CIT entry first. The
        // CIT is modelled as an associative capacity of citEntries
        // live records (the paper's direct-mapped-by-PC table would
        // conflict between instances of the same static instruction,
        // which its own Figure 4 example implies must coexist).
        // Each entry records the most recent unresolved branch at
        // commit time and is reclaimed when that branch commits
        // or is squashed (Section 4.3).
        if (best->idx > view.oldestUncommitted()) {
            if (citLive_ >= srob_.citEntries) {
                ++view.stats().citFullStalls;
                blocked_[static_cast<size_t>(bestCq + 1)] = 1;
                continue;
            }
            TraceIdx guard = view.youngestUnresolvedBefore(best->idx);
            if (guard != TRACE_NONE) {
                ++citByGuard_[guard];
                ++citLive_;
            }
            // With no older unresolved branch the entry can never
            // be re-fetched; it is reclaimed immediately.
            ++view.stats().citOps;
        }

        view.commit(best);
        queueOf(bestCq).pop_front();
        ++view.stats().cqOps;
        if (best->isBranch) {
            auto it = cqt_.find(best->idx);
            if (it != cqt_.end()) {
                cqt_.erase(it);
                ++view.stats().cqtOps;
            }
            auto git = citByGuard_.find(best->idx);
            if (git != citByGuard_.end()) {
                citLive_ -= git->second;
                view.stats().citOps +=
                    static_cast<uint64_t>(git->second);
                citByGuard_.erase(git);
            }
        }
        --budget;
    }
}

void
NorebaCommit::steer(PipelineView &view)
{
    for (int budget = view.config().steerWidth;
         budget > 0 && !robPrime_.empty(); --budget) {
        InFlight *p = robPrime_.front();
        const TraceRecord &rec = p->rec;

        // In-order page-table check before leaving the ROB'.
        if (isMem(rec.op) && !view.tlbDone(p))
            return stallSteer(view, SteerStall::Tlb);

        int targetCq = -1; // -1 encodes the PR-CQ
        if (rec.guardIdx >= 0) {
            ++view.stats().cqtOps;
            auto it = cqt_.find(rec.guardIdx);
            if (it != cqt_.end())
                targetCq = it->second;
        }
        const bool marked = p->isBranch && rec.markedBranch;
        if (marked && cqt_.size() >= static_cast<size_t>(CQT_ENTRIES))
            return stallSteer(view, SteerStall::Cqt);
        // Table 1: an unresolved marked branch leaving the ROB' claims
        // a Branch Commit Queue. Ordering among instances of one static
        // branch is enforced by the commit condition
        // (guardChainResolved / olderSitePcUnresolved), not by queue
        // placement.
        if (marked && !p->resolved)
            targetCq = pickBrCq();
        if (targetCq == -2 ||
            queueOf(targetCq).size() >= capacityOf(targetCq))
            return stallSteer(view, SteerStall::CqFull);

        queueOf(targetCq).push_back(p);
        if (marked) {
            cqt_[p->idx] = targetCq;
            ++view.stats().cqtOps;
        }
        p->steered = true;
        ++view.stats().cqOps;
        robPrime_.pop_front();
    }
}

void
NorebaCommit::stallSteer(PipelineView &view, SteerStall why)
{
    steerStall_ = why;
    CoreStats &s = view.stats();
    ++(why == SteerStall::Tlb   ? s.steerStallTlb
       : why == SteerStall::Cqt ? s.steerStallCqt
                                : s.steerStallCqFull);
    ++s.steerStallCycles;
}

int
NorebaCommit::pickBrCq() const
{
    int best = -2;
    int bestScore = -1;
    const size_t cap = static_cast<size_t>(srob_.brCqEntries);
    for (size_t i = 0; i < brCqs_.size(); ++i) {
        const auto &q = brCqs_[i];
        if (q.size() >= cap)
            continue;
        int score;
        if (q.empty())
            score = 3000;
        else if (q.front()->resolved)
            score = 2000 - static_cast<int>(q.size());
        else
            score = 1000 - static_cast<int>(q.size());
        if (score > bestScore) {
            bestScore = score;
            best = static_cast<int>(i);
        }
    }
    return best;
}

} // namespace noreba
