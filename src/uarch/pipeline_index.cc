#include "uarch/pipeline_index.h"

#include <set>

#include "common/logging.h"

namespace noreba {

namespace {

/** The queue's live indices are exactly @p naive, in order. */
bool
sameIndices(const IndexQueue<> &q, const std::set<TraceIdx> &naive)
{
    if (q.size() != naive.size())
        return false;
    auto it = naive.begin();
    for (const auto &e : q)
        if (e.idx != *it++)
            return false;
    return true;
}

} // namespace

void
PipelineIndex::onDispatch(InFlight *p)
{
    frontier_.pushBack(p);
    inflightByIdx_.put(p);
    const TraceRecord &rec = *p->rec;
    if (p->isBranch) {
        unresolved_.insert(p->idx, rec.pc);
        unresolvedUncommitted_.insert(p->idx);
        unresolvedByPc_[rec.pc].insert(p->idx);
    }
    if (isMem(rec.op))
        uncheckedMem_.insert(p->idx);
    if (rec.op == Opcode::FENCE)
        fences_.insert(p->idx);
}

void
PipelineIndex::eraseUnresolved(TraceIdx idx, uint64_t pc)
{
    unresolvedUncommitted_.erase(idx);
    auto it = unresolvedByPc_.find(pc);
    if (it != unresolvedByPc_.end())
        it->second.erase(idx);
}

void
PipelineIndex::onResolve(InFlight *p)
{
    const auto *e = unresolved_.find(p->idx);
    if (!e)
        return;
    eraseUnresolved(e->idx, e->payload);
    unresolved_.erase(p->idx);
}

void
PipelineIndex::onTlbCheck(InFlight *p)
{
    tlbPending_.push(TlbPending{p->tlbDoneAt, p, p->gen});
}

void
PipelineIndex::drainTlbPending(Cycle now)
{
    while (!tlbPending_.empty() && tlbPending_.top().doneAt <= now) {
        TlbPending e = tlbPending_.top();
        tlbPending_.pop();
        // The generation pins the incarnation: a squashed-and-recycled
        // slot (or a freed zombie) must not evict its successor's
        // entry.
        if (e.p->gen == e.gen)
            uncheckedMem_.erase(e.p->idx);
    }
}

void
PipelineIndex::onCommit(InFlight *p)
{
    frontier_.erase(p);
    const TraceRecord &rec = *p->rec;
    if (p->isBranch) {
        // A policy may retire an unresolved branch early (the
        // speculative oracles): it leaves the commit barrier but stays
        // in unresolved_ until writeback resolves it, matching the
        // historical set semantics every query was defined against.
        unresolvedUncommitted_.erase(p->idx);
    }
    if (isMem(rec.op))
        uncheckedMem_.erase(p->idx);
    if (rec.op == Opcode::FENCE)
        fences_.erase(p->idx);
}

void
PipelineIndex::onSquash(TraceIdx after)
{
    while (frontier_.tail() && frontier_.tail()->idx > after)
        frontier_.erase(frontier_.tail());

    // Every ordered index loses its suffix. A per-PC bucket is cut only
    // where a squashed branch still lives in it; dead leftovers in the
    // others are popped by their next insert.
    unresolved_.truncateAfter(after, [&](const auto &e) {
        unresolvedByPc_[e.payload].truncateAfter(after);
    });
    unresolvedUncommitted_.truncateAfter(after);
    uncheckedMem_.truncateAfter(after);
    fences_.truncateAfter(after);
    // tlbPending_ keeps stale entries; drainTlbPending's generation
    // check discards them. inflightByIdx_ entries die with onFree.
}

void
PipelineIndex::onFree(InFlight *p)
{
    panic_if(p->inFrontier,
             "freeing trace idx %d while still on the uncommitted "
             "frontier",
             p->idx);
    inflightByIdx_.drop(p);
}

void
PipelineIndex::shadowVerify(const Ring<InFlight *> &rob, Cycle now,
                            const TraceView &trace)
{
    // Frontier == the uncommitted subsequence of the master ROB.
    InFlight *f = frontier_.head();
    size_t uncommitted = 0;
    for (InFlight *p : rob) {
        if (p->committed)
            continue;
        ++uncommitted;
        panic_if(f != p,
                 "frontier diverged from the ROB at trace idx %d",
                 p->idx);
        f = p->frontNext;
    }
    panic_if(f != nullptr || frontier_.size() != uncommitted,
             "frontier has stale entries (%zu vs %zu uncommitted)",
             frontier_.size(), uncommitted);

    // Naive commit barriers from a full ROB scan.
    TraceIdx naiveBranch = INT32_MAX;
    TraceIdx naiveMem = INT32_MAX;
    std::set<TraceIdx> naiveUnchecked;
    std::set<TraceIdx> naiveFences;
    for (InFlight *p : rob) {
        if (p->committed)
            continue;
        if (p->isBranch && !p->resolved && naiveBranch == INT32_MAX)
            naiveBranch = p->idx;
        if (isMem(p->rec->op) &&
            !(p->tlbChecked && now >= p->tlbDoneAt)) {
            if (naiveMem == INT32_MAX)
                naiveMem = p->idx;
            naiveUnchecked.insert(p->idx);
        }
        if (p->rec->op == Opcode::FENCE)
            naiveFences.insert(p->idx);
        if (p->isBranch && !p->resolved) {
            panic_if(!unresolvedUncommitted_.find(p->idx),
                     "unresolved branch %d missing from the barrier "
                     "index",
                     p->idx);
            panic_if(!unresolved_.find(p->idx),
                     "unresolved branch %d missing from unresolved_",
                     p->idx);
        }
        panic_if(findInFlight(p->idx) != p,
                 "inflightByIdx_ lost trace idx %d", p->idx);
    }
    panic_if(oldestUnresolvedBranch() != naiveBranch,
             "oldestUnresolvedBranch: index %d vs naive %d",
             oldestUnresolvedBranch(), naiveBranch);
    panic_if(oldestUncheckedMem(now) != naiveMem,
             "oldestUncheckedMem: index %d vs naive %d",
             oldestUncheckedMem(now), naiveMem);
    panic_if(!sameIndices(uncheckedMem_, naiveUnchecked),
             "unchecked-memory index diverged (%zu vs %zu entries)",
             uncheckedMem_.size(), naiveUnchecked.size());
    panic_if(!sameIndices(fences_, naiveFences),
             "fence index diverged (%zu vs %zu entries)",
             fences_.size(), naiveFences.size());

    // unresolvedUncommitted_ must not exceed the naive count (every
    // member was matched above).
    size_t naiveUnresolved = 0;
    for (InFlight *p : rob)
        if (!p->committed && p->isBranch && !p->resolved)
            ++naiveUnresolved;
    panic_if(unresolvedUncommitted_.size() != naiveUnresolved,
             "barrier index has stale branches (%zu vs %zu)",
             unresolvedUncommitted_.size(), naiveUnresolved);

    // Per-PC instance index is an exact partition of unresolved_.
    size_t byPcTotal = 0;
    for (const auto &[pc, bucket] : unresolvedByPc_) {
        byPcTotal += bucket.size();
        for (const auto &e : bucket) {
            const auto *u = unresolved_.find(e.idx);
            panic_if(!u || u->payload != pc,
                     "per-PC bucket %llx holds idx %d not unresolved "
                     "at that site",
                     static_cast<unsigned long long>(pc), e.idx);
            panic_if(trace[static_cast<size_t>(e.idx)].pc != pc,
                     "per-PC bucket key %llx mismatches trace pc",
                     static_cast<unsigned long long>(pc));
        }
    }
    panic_if(byPcTotal != unresolved_.size(),
             "per-PC partition lost entries (%zu vs %zu)", byPcTotal,
             unresolved_.size());
}

} // namespace noreba
