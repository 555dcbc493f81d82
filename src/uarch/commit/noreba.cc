/**
 * @file
 * The NOREBA commit policy: the Selective ROB of Section 4.
 *
 * Dispatched instructions enter the FIFO ROB' in program order. Each
 * cycle, up to steerWidth instructions leave the ROB' head and are
 * steered to FIFO commit queues exactly per Table 1:
 *
 *  - a *marked* branch (one that carried a setBranchId) registers
 *    CQT[BranchID] = CQ and is steered to its own guard's queue if that
 *    guard is still live in the CQT (keeping dependence chains in FIFO
 *    order), otherwise to a free Branch Commit Queue (or the PR-CQ if
 *    it already resolved);
 *  - any other instruction goes to CQT[Inst.BranchID] if that entry
 *    exists, else to the Primary Commit Queue;
 *  - loads and stores steer only once their page-table access succeeded
 *    (in-order TLB check at the ROB' head).
 *
 * Commit picks the oldest eligible queue head each cycle (branches must
 * have resolved; everything else follows the shared commit conditions).
 * A commit that happens out of program order allocates a CIT entry
 * (direct-mapped by PC); a CIT set conflict stalls that commit, and
 * entries are reclaimed once in-order commit passes them (Section 4.3).
 * Committed branches remove their CQT entry.
 */

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/ring.h"
#include "uarch/commit/commit_policy.h"
#include "uarch/pipeline_view.h"

namespace noreba {

namespace {

/**
 * Trace index -> int table as a sorted vector: the CQT and the CIT
 * guard groups hold at most a few dozen live entries, so a binary
 * search plus a short memmove beats a tree node allocation per insert.
 */
class FlatIdxMap
{
  public:
    using Entry = std::pair<TraceIdx, int>;

    size_t size() const { return v_.size(); }
    std::vector<Entry>::iterator end() { return v_.end(); }

    std::vector<Entry>::iterator
    find(TraceIdx k)
    {
        auto it = lowerBound(k);
        return it != v_.end() && it->first == k ? it : v_.end();
    }

    /** The value at @p k, value-initialised on first use. */
    int &
    operator[](TraceIdx k)
    {
        auto it = lowerBound(k);
        if (it == v_.end() || it->first != k)
            it = v_.insert(it, Entry{k, 0});
        return it->second;
    }

    void erase(std::vector<Entry>::iterator it) { v_.erase(it); }

    /** Drop every entry for which @p pred holds, keeping order. */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        v_.erase(std::remove_if(v_.begin(), v_.end(), pred), v_.end());
    }

  private:
    std::vector<Entry>::iterator
    lowerBound(TraceIdx k)
    {
        return std::lower_bound(
            v_.begin(), v_.end(), k,
            [](const Entry &e, TraceIdx key) { return e.first < key; });
    }

    std::vector<Entry> v_;
};

} // namespace

class NorebaCommit : public CommitPolicy
{
  public:
    explicit NorebaCommit(const CoreConfig &cfg) : srob_(cfg.srob)
    {
        brCqs_.resize(static_cast<size_t>(srob_.numBrCqs));
        // +1: slot 0 tracks the PR-CQ, slots 1..numBrCqs the BR-CQs.
        blocked_.resize(1 + brCqs_.size());
    }

    void
    onDispatch(PipelineView &view, InFlight *p) override
    {
        (void)view;
        robPrime_.push_back(p);
    }

    bool
    windowHasSpace(const PipelineView &view) const override
    {
        // Steered instructions have released their ROB' entry; only the
        // un-steered ones occupy it (Section 4.2: ROB' size equals the
        // baseline ROB).
        return robPrime_.size() <
               static_cast<size_t>(view.config().robEntries);
    }

    void
    commitCycle(PipelineView &view) override
    {
        steerStall_ = SteerStall::None;
        reclaimCit(view);
        commitFromQueues(view);
        steer(view);
    }

    void
    onSquash(PipelineView &view, TraceIdx after) override
    {
        (void)view;
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
    }

    const char *name() const override { return "Noreba"; }

    StallCause
    classifyStall(const PipelineView &view,
                  const InFlight *head) const override
    {
        if (!head->steered) {
            // The oldest uncommitted instruction is un-steered, so it
            // is the ROB' head (everything ahead of it in the FIFO
            // would be older, un-steered, hence uncommitted). Charge
            // whatever kept the steer stage from moving it; with no
            // recorded block it simply missed this cycle's steer
            // bandwidth, a structural limit.
            if (steerStall_ == SteerStall::Tlb)
                return StallCause::HeadMem;
            return StallCause::Structural;
        }
        StallCause base = CommitPolicy::classifyStall(view, head);
        // A completed, checked queue head only waits on its compiler
        // guard chain (branch C5 / order-sensitive re-validation);
        // CIT-full blocks stay structural.
        if (base == StallCause::Structural &&
            !view.guardChainResolved(head))
            return StallCause::HeadBranch;
        return base;
    }

  private:
    enum class SteerStall
    {
        None,
        Tlb,
        Cqt,
        CqFull,
    };
    Ring<InFlight *> &
    queueOf(int cq)
    {
        return cq < 0 ? prCq_ : brCqs_[static_cast<size_t>(cq)];
    }

    size_t
    capacityOf(int cq) const
    {
        return cq < 0 ? static_cast<size_t>(srob_.prCqEntries)
                      : static_cast<size_t>(srob_.brCqEntries);
    }

    bool
    headEligible(const PipelineView &view, InFlight *p) const
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
        if ((p->rec->orderSensitive || p->rec->orderStrict) &&
            !view.guardChainResolved(p))
            return false;
        // Footnote-1 C1/C3 relaxation: commit is non-speculative
        // *resource recovery*. Once an instruction cannot trap (memory
        // ops past their page-table check; RISC-V FP accrues into fcsr)
        // and its dependence queue has cleared, its window resources
        // are reclaimed even before the result returns; execution
        // completes in the background.
        if (isMem(p->rec->op))
            return view.tlbDone(p) && view.fenceAllows(p);
        return view.fenceAllows(p) &&
               (p->rec->op != Opcode::FENCE || view.commitEligibleBasic(p));
    }

    void
    commitFromQueues(PipelineView &view)
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
            // (Section 4.3).
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
    steer(PipelineView &view)
    {
        int budget = view.config().steerWidth;
        bool stalled = false;
        while (budget > 0 && !robPrime_.empty()) {
            InFlight *p = robPrime_.front();
            const TraceRecord &rec = *p->rec;

            // In-order page-table check before leaving the ROB'.
            if (isMem(rec.op) && !view.tlbDone(p)) {
                stalled = true;
                steerStall_ = SteerStall::Tlb;
                ++view.stats().steerStallTlb;
                break;
            }

            int targetCq = -1; // -1 encodes the PR-CQ
            if (rec.guardIdx >= 0) {
                ++view.stats().cqtOps;
                auto it = cqt_.find(rec.guardIdx);
                if (it != cqt_.end())
                    targetCq = it->second;
            }

            if (p->isBranch && rec.markedBranch) {
                if (cqt_.size() >=
                    static_cast<size_t>(srob_.cqtEntries)) {
                    stalled = true;
                    steerStall_ = SteerStall::Cqt;
                    ++view.stats().steerStallCqt;
                    break; // CQT full: the ROB' head waits
                }
                if (!p->resolved) {
                    // Table 1: an unresolved branch leaving the ROB'
                    // claims a Branch Commit Queue. Ordering among
                    // instances of one static branch is enforced by
                    // the commit condition (guardChainResolved /
                    // olderSamePcUnresolved), not by queue placement.
                    targetCq = pickBrCq();
                    if (targetCq == -2) {
                        stalled = true;
                        steerStall_ = SteerStall::CqFull;
                        ++view.stats().steerStallCqFull;
                        break; // all BR-CQs full
                    }
                }
                if (queueOf(targetCq).size() >= capacityOf(targetCq)) {
                    stalled = true;
                    steerStall_ = SteerStall::CqFull;
                    ++view.stats().steerStallCqFull;
                    break;
                }
                queueOf(targetCq).push_back(p);
                cqt_[p->idx] = targetCq;
                ++view.stats().cqtOps;
            } else {
                if (queueOf(targetCq).size() >= capacityOf(targetCq)) {
                    stalled = true;
                    steerStall_ = SteerStall::CqFull;
                    ++view.stats().steerStallCqFull;
                    break;
                }
                queueOf(targetCq).push_back(p);
            }

            p->steered = true;
            p->cq = targetCq;
            ++view.stats().cqOps;
            robPrime_.pop_front();
            --budget;
        }
        if (stalled)
            ++view.stats().steerStallCycles;
    }

    /**
     * BR-CQ allocation: prefer an empty queue, then a queue whose head
     * has already resolved (it is draining), then the least-occupied
     * one. Returns -2 if every BR-CQ is full.
     */
    int
    pickBrCq() const
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

    void
    reclaimCit(PipelineView &view)
    {
        // Guard branches that resolved correctly and committed free
        // their groups in commitFromQueues; groups whose guard vanished
        // in a squash are reclaimed here.
        citByGuard_.eraseIf([&](const FlatIdxMap::Entry &e) {
            TraceIdx g = e.first;
            if (!view.isCommitted(g) && view.findInFlight(g) != nullptr)
                return false;
            citLive_ -= e.second;
            view.stats().citOps += static_cast<uint64_t>(e.second);
            return true;
        });
    }

    const SelectiveRobConfig srob_;
    Ring<InFlight *> robPrime_;
    Ring<InFlight *> prCq_;
    std::vector<Ring<InFlight *>> brCqs_;
    FlatIdxMap cqt_;        //!< live branch -> commit queue
    FlatIdxMap citByGuard_; //!< CIT entries per guard branch
    int citLive_ = 0;
    /** Per-cycle CIT-stall block flags, [0] = PR-CQ, [1+i] = BR-CQ i. */
    std::vector<char> blocked_;
    /** What (if anything) blocked the steer stage this cycle. */
    SteerStall steerStall_ = SteerStall::None;
};

std::unique_ptr<CommitPolicy>
makeNorebaCommit(const CoreConfig &cfg)
{
    return std::make_unique<NorebaCommit>(cfg);
}

} // namespace noreba
