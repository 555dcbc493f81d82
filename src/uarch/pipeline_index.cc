#include "uarch/pipeline_index.h"

#include <algorithm>
#include <set>
#include <vector>

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
    const TraceRecord &rec = p->rec;
    if (p->isBranch) {
        unresolved_.insert(p->idx, rec.pc);
        unresolvedByPc_[rec.pc].insert(p->idx);
    }
    if (isMem(rec.op))
        uncheckedMem_.insert(p->idx, p);
    if (rec.op == Opcode::FENCE)
        fences_.insert(p->idx);
}

void
PipelineIndex::onResolve(InFlight *p)
{
    ++resolveEpoch_;
    const auto *e = unresolved_.find(p->idx);
    if (!e)
        return;
    auto it = unresolvedByPc_.find(e->payload);
    if (it != unresolvedByPc_.end())
        it->second.erase(p->idx);
    unresolved_.erase(p->idx);
}

void
PipelineIndex::onCommit(InFlight *p)
{
    // A branch stays in unresolved_ until writeback resolves it, even
    // if a speculative oracle retired it first.
    frontier_.erase(p);
    const TraceRecord &rec = p->rec;
    if (isMem(rec.op))
        uncheckedMem_.erase(p->idx);
    if (rec.op == Opcode::FENCE)
        fences_.erase(p->idx);
}

void
PipelineIndex::onSquash(TraceIdx after)
{
    ++resolveEpoch_;
    while (frontier_.tail() && frontier_.tail()->idx > after)
        frontier_.erase(frontier_.tail());

    // Every ordered index loses its suffix. A per-PC bucket is cut only
    // where a squashed branch still lives in it; dead leftovers in the
    // others are popped by their next insert.
    unresolved_.truncateAfter(after, [&](const auto &e) {
        unresolvedByPc_[e.payload].truncateAfter(after);
    });
    uncheckedMem_.truncateAfter(after);
    fences_.truncateAfter(after);
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

    // Naive answers from a full ROB scan, in program order.
    std::vector<TraceIdx> uncommittedIdx;
    std::vector<TraceIdx> naiveUnresolved;
    TraceIdx naiveMem = INT32_MAX;
    std::vector<TraceIdx> naiveUnchecked;
    std::set<TraceIdx> naiveFences;
    for (InFlight *p : rob) {
        if (p->committed)
            continue;
        uncommittedIdx.push_back(p->idx);
        if (p->isBranch && !p->resolved)
            naiveUnresolved.push_back(p->idx);
        if (isMem(p->rec.op) &&
            !(p->tlbChecked && now >= p->tlbDoneAt)) {
            if (naiveMem == INT32_MAX)
                naiveMem = p->idx;
            naiveUnchecked.push_back(p->idx);
        }
        if (p->rec.op == Opcode::FENCE)
            naiveFences.insert(p->idx);
    }
    panic_if(oldestUncheckedMem(now) != naiveMem,
             "oldestUncheckedMem: index %d vs naive %d",
             oldestUncheckedMem(now), naiveMem);
    // The queue may still hold checked ops behind its head, so it is a
    // superset of the naive set, made of live uncommitted memory ops.
    for (TraceIdx idx : naiveUnchecked)
        panic_if(!uncheckedMem_.find(idx),
                 "unchecked memory op %d missing from the index", idx);
    for (const auto &e : uncheckedMem_) {
        const InFlight *p = e.payload;
        panic_if(p->idx != e.idx || !p->inFrontier || !isMem(p->rec.op),
                 "unchecked-memory entry %d is not a live uncommitted "
                 "memory op (its slot holds %d)",
                 e.idx, p->idx);
    }
    panic_if(!sameIndices(fences_, naiveFences),
             "fence index diverged (%zu vs %zu entries)",
             fences_.size(), naiveFences.size());

    // The uncommitted entries of unresolved_ are exactly the ROB's
    // uncommitted unresolved branches; the rest are branches a
    // speculative oracle retired before they resolved. So wherever no
    // policy retires an unresolved branch (Core::commit checks that),
    // oldestUnresolved() is the naive C5 barrier.
    std::vector<TraceIdx> indexedUncommitted;
    for (const auto &e : unresolved_)
        if (std::binary_search(uncommittedIdx.begin(),
                               uncommittedIdx.end(), e.idx))
            indexedUncommitted.push_back(e.idx);
    panic_if(indexedUncommitted != naiveUnresolved,
             "unresolved_ diverged from the ROB's uncommitted "
             "unresolved branches (%zu vs %zu)",
             indexedUncommitted.size(), naiveUnresolved.size());

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
            panic_if(trace.pcOf(static_cast<size_t>(e.idx)) != pc,
                     "per-PC bucket key %llx mismatches trace pc",
                     static_cast<unsigned long long>(pc));
        }
    }
    panic_if(byPcTotal != unresolved_.size(),
             "per-PC partition lost entries (%zu vs %zu)", byPcTotal,
             unresolved_.size());
}

} // namespace noreba
