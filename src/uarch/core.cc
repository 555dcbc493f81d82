#include "uarch/core.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

/**
 * Pipeline-event emission. A single null test when tracing is
 * configured off; removed entirely under -DNOREBA_EVENT_TRACE=OFF.
 * Emission never touches CoreStats, so tracing cannot perturb results.
 */
#ifndef NOREBA_NO_EVENT_TRACE
#define NOREBA_EMIT(type, idx, pc, cause)                                 \
    do {                                                                  \
        if (eventLog_)                                                    \
            eventLog_->emit(cycle_, (type), (idx), (pc), (cause));        \
    } while (0)
#else
#define NOREBA_EMIT(type, idx, pc, cause) ((void)0)
#endif

namespace noreba {

namespace {

bool
recHasDest(const TraceRecord &rec)
{
    return rec.rd > REG_ZERO || rec.rd >= FREG_BASE;
}

/** Byte ranges of two memory records overlap. */
bool
memOverlap(const TraceRecord &a, const TraceRecord &b)
{
    uint64_t aLo = a.addrOrImm, aHi = aLo + a.memSize;
    uint64_t bLo = b.addrOrImm, bHi = bLo + b.memSize;
    return aLo < bHi && bLo < aHi;
}

/** A fresh pool slot. Copying it resets a recycled slot with plain
 *  loads and stores; building a temporary in place each time costs a
 *  block fill plus store-forwarding stalls on every fetch. */
const InFlight BLANK_INFLIGHT{};

/** SQ address-index granularity: one bucket per 64-byte chunk. */
constexpr int SQ_CHUNK_SHIFT = 6;

/** Insert into a dispatch-ordered vector, keeping it sorted by seq. */
void
insertBySeq(std::vector<InFlight *> &v, InFlight *p)
{
    auto it = std::lower_bound(v.begin(), v.end(), p,
                               [](const InFlight *a, const InFlight *b) {
                                   return a->seq < b->seq;
                               });
    v.insert(it, p);
}

} // namespace

/** O(1) IQ removal: swap the last entry into the vacated slot. The IQ
 *  vector is unordered — issue order lives in the ready queue — so
 *  only the iqPos back-pointers need fixing up. */
void
Core::iqErase(InFlight *p)
{
    panic_if(p->iqPos < 0 || iq_[static_cast<size_t>(p->iqPos)] != p,
             "IQ lost trace idx %d", p->idx);
    InFlight *last = iq_.back();
    iq_[static_cast<size_t>(p->iqPos)] = last;
    last->iqPos = p->iqPos;
    iq_.pop_back();
    p->iqPos = -1;
}

Core::Core(const CoreConfig &cfg, TraceView trace,
           const std::vector<uint8_t> &misp)
    : cfg_(cfg), trace_(std::move(trace)), misp_(misp),
      policy_(makeCommitPolicy(cfg)), mem_(cfg),
      tlb_(cfg.tlbEntries, cfg.tlbMissPenalty),
      divFreeAt_(static_cast<size_t>(std::max(0, cfg.numIntDiv)), 0),
      fdivFreeAt_(static_cast<size_t>(std::max(0, cfg.numFpDiv)), 0),
      committed_(trace_.size(), 0)
{
    panic_if(misp.size() != trace_.size(),
             "misprediction vector does not match the trace");
    view_.cfg_ = &cfg_;
    view_.trace_ = &trace_;
    view_.cycle_ = &cycle_;
    view_.stats_ = &stats_;
    view_.committed_ = &committed_;
    view_.cursor_ = &cursor_;
    view_.windowUsed_ = &windowUsed_;
    view_.index_ = &index_;
    view_.core_ = this;
#ifndef NOREBA_NO_EVENT_TRACE
    if (cfg_.eventTrace) {
        ownedLog_ = std::make_unique<EventLog>(cfg_.eventTraceCapacity);
        eventLog_ = ownedLog_.get();
    }
#endif
}

Core::~Core() = default;

void
PipelineView::commit(InFlight *p)
{
    core_->commit(p);
}

InFlight *
Core::alloc()
{
    if (freeList_.empty()) {
        storage_.push_back(std::make_unique<InFlight[]>(POOL_CHUNK));
        InFlight *chunk = storage_.back().get();
        for (size_t i = POOL_CHUNK; i-- > 0;)
            freeList_.push_back(&chunk[i]);
    }
    InFlight *p = freeList_.back();
    freeList_.pop_back();
    panic_if(p->waitHead >= 0, "recycling trace idx %d with parked waiters",
             p->idx);
    uint64_t gen = p->gen;
    *p = BLANK_INFLIGHT;
    p->gen = gen + 1;
    return p;
}

void
Core::free(InFlight *p)
{
    index_.onFree(p);
    panic_if(p->inReadyQ || p->inAddrPending,
             "freeing trace idx %d while still scheduled for issue",
             p->idx);
    ++p->gen;
    // Sources go ready not only by completion but by this gen bump
    // (SrcRef::ready). The only live consumers of a squashed producer
    // are committed-early zombies — everything uncommitted and younger
    // is squashed with it (and freed first, so its waiter entries here
    // are already stale). Deliver their wakeups now; a producer that
    // completed has no waiters left.
    wakeWaiters(p);
    freeList_.push_back(p);
}

void
Core::startTlbCheck(InFlight *p)
{
    int tlbLat = tlb_.access(p->rec->addrOrImm);
    p->tlbChecked = true;
    p->tlbDoneAt = cycle_ + static_cast<Cycle>(tlbLat);
    index_.onTlbCheck(p);
}

void
Core::commit(InFlight *p)
{
    panic_if(p->committed, "double commit of trace idx %d", p->idx);
    if (commitHook)
        commitHook(view_, *p);
    NOREBA_EMIT(TraceEventType::Commit, p->idx, p->rec->pc,
                StallCause::None);
    committed_[static_cast<size_t>(p->idx)] = 1;
    p->committed = true;
    ++commitsThisCycle_;
    ++stats_.committedInsts;
    // "Committed out of order" in the paper's sense: retired while an
    // older branch was still unresolved (Condition 5 relaxed).
    TraceIdx oldestBranch = index_.oldestUnresolved();
    if (oldestBranch != TRACE_NONE && oldestBranch < p->idx)
        ++stats_.committedOoO;
    if (p->idx > cursor_)
        ++stats_.committedAhead;
    index_.onCommit(p);

    --windowUsed_;
    ++stats_.robReads;
    const TraceRecord &rec = *p->rec;
    if (recHasDest(rec))
        --physUsed_;
    if (isLoad(rec.op)) {
        --lqUsed_;
        ++stats_.lsqOps;
    } else if (isStore(rec.op)) {
        --sqUsed_;
        ++stats_.lsqOps;
        // Retire the store into the memory system.
        mem_.access(rec.addrOrImm, true);
        ++stats_.dcacheAccesses;
        auto it = std::find(sq_.begin(), sq_.end(), p);
        if (it != sq_.end()) {
            sq_.erase(it.pos());
            sqIndexErase(p);
        }
    }
    // Advance eagerly so "out of order" means "older work still
    // pending at the moment of commit", and so CIT reclamation and
    // allocation see an exact in-order frontier.
    advanceCursor();
}

void
Core::advanceCursor()
{
    while (cursor_ < static_cast<TraceIdx>(trace_.size()) &&
           committed_[static_cast<size_t>(cursor_)]) {
        ++cursor_;
    }
}

void
Core::releaseResources(InFlight *p)
{
    --windowUsed_;
    const TraceRecord &rec = *p->rec;
    if (recHasDest(rec))
        --physUsed_;
    if (isLoad(rec.op))
        --lqUsed_;
    else if (isStore(rec.op))
        --sqUsed_;
    if (p->inIq)
        --iqUsed_;
}

void
Core::rebuildRenameTable()
{
    for (auto &ref : renameTable_)
        ref = InFlight::SrcRef{};
    for (InFlight *p = index_.frontierHead(); p;
         p = PipelineIndex::frontierNext(p)) {
        if (recHasDest(*p->rec))
            renameTable_[p->rec->rd] = {p, p->gen};
    }
}

void
Core::squashAfter(InFlight *b)
{
    ++stats_.squashes;
    NOREBA_EMIT(TraceEventType::Squash, b->idx, b->rec->pc,
                StallCause::None);

    // Front end restarts on the correct path after the redirect.
    for (InFlight *p : ifq_)
        free(p);
    ifq_.clear();
    for (InFlight *p : decodedQ_)
        free(p);
    decodedQ_.clear();
    fetchIdx_ = b->idx + 1;
    fetchResumeAt_ = std::max(fetchResumeAt_,
                              cycle_ + static_cast<Cycle>(
                                           cfg_.redirectPenalty));
    lastFetchLine_ = ~0ull;

    // Remove younger instructions from the window. Committed ones stay
    // committed (their re-fetch is CIT-dropped at decode); uncommitted
    // ones release their resources and vanish.
    squashed_.clear();
    while (!rob_.empty() && rob_.back()->idx > b->idx) {
        InFlight *p = rob_.back();
        rob_.pop_back();
        p->inRob = false;
        if (p->committed) {
            if (p->completed) {
                free(p);
            } else {
                // A committed-early zombie leaves the window; its
                // pending completion must not trigger a (stale)
                // misprediction squash after this one rewound fetch.
                p->resolved = true;
            }
        } else {
            releaseResources(p);
            squashed_.push_back(p);
            ++stats_.squashedInsts;
        }
    }

    index_.onSquash(b->idx);

    auto isSquashed = [b](InFlight *p) { return p->idx > b->idx; };
    for (size_t i = 0; i < iq_.size();) {
        InFlight *p = iq_[i];
        if (p->committed || !isSquashed(p)) {
            ++i;
            continue;
        }
        iqErase(p); // swap-pop: re-examine slot i
    }
    // Scheduler rollback by suffix: the ready queue and the pending
    // address-gen list mirror the IQ (committed-early zombies stay and
    // still issue), the SQ index mirrors sq_ — which holds only
    // uncommitted stores in ascending trace order, so the squashed
    // entries are exactly its tail.
    readyQ_.erase(std::remove_if(readyQ_.begin(), readyQ_.end(),
                                 [&](InFlight *p) {
                                     if (p->committed || !isSquashed(p))
                                         return false;
                                     p->inReadyQ = false;
                                     return true;
                                 }),
                  readyQ_.end());
    addrPending_.erase(std::remove_if(addrPending_.begin(),
                                      addrPending_.end(),
                                      [&](InFlight *p) {
                                          if (p->committed ||
                                              !isSquashed(p))
                                              return false;
                                          p->inAddrPending = false;
                                          return true;
                                      }),
                       addrPending_.end());
    while (!sq_.empty() && isSquashed(sq_.back())) {
        sqIndexErase(sq_.back());
        sq_.pop_back();
    }

    policy_->onSquash(view_, b->idx);

    for (InFlight *p : squashed_)
        free(p);

    rebuildRenameTable();
}

void
Core::writebackStage()
{
    while (!events_.empty() && events_.top().cycle <= cycle_) {
        Event e = events_.top();
        events_.pop();
        InFlight *p = e.p;
        if (p->gen != e.gen)
            continue; // squashed and recycled
        p->completed = true;
        ++stats_.cdbBroadcasts;
        if (recHasDest(*p->rec))
            ++stats_.rfWrites;
        wakeWaiters(p);
        if (p->isBranch && !p->resolved) {
            // Branches resolve even if a speculative policy committed
            // them early: the pipeline flush on a misprediction is
            // real in every design (only the architectural rollback is
            // the oracle's freebie).
            p->resolved = true;
            index_.onResolve(p);
            ++stats_.branches;
            if (p->mispredicted) {
                ++stats_.mispredicts;
                squashAfter(p);
            }
        }
        if (p->committed) {
            // An early-reclaimed zombie finishing after commit.
            if (!p->inRob)
                free(p);
            continue;
        }
    }
}

void
Core::commitStage()
{
    commitsThisCycle_ = 0;
    policy_->commitCycle(view_);
    advanceCursor();

    // Reclaim fully-retired entries at the head of the master ROB.
    while (!rob_.empty() && rob_.front()->committed) {
        InFlight *p = rob_.front();
        rob_.pop_front();
        p->inRob = false;
        if (p->completed)
            free(p);
        // else an ECL zombie: its completion event frees it.
    }

    if (commitsThisCycle_ == 0 && !rob_.empty()) {
        InFlight *head = rob_.front();
        if (head->isBranch && !head->resolved)
            ++stats_.commitHeadBranchStall;
        else if (isMem(head->rec->op) && !head->completed)
            ++stats_.commitHeadLoadStall;
        TraceIdx b = index_.oldestUnresolved();
        if (cfg_.attributeStalls && b != TRACE_NONE) {
            // Figure 7: charge the stalled cycle to the oldest branch
            // that is still unresolved — the one in-order commit (and
            // every non-speculative OoO-commit condition) is waiting
            // for before the window can drain.
            ++stats_.branchStalls[trace_[static_cast<size_t>(b)]
                                      .pc]
                  .stallCycles;
        }
    }

    // Per-cycle commit-stall attribution: every cycle is charged to
    // exactly one bucket — full-width retirement, or one StallCause
    // (the causes partition commitStallCycles; see DESIGN.md §10).
    if (commitsThisCycle_ >=
        static_cast<uint64_t>(cfg_.commitWidth)) {
        ++stats_.commitWidthFullCycles;
        return;
    }
    ++stats_.commitStallCycles;
    InFlight *head = index_.frontierHead();
    StallCause cause = head ? policy_->classifyStall(view_, head)
                            : StallCause::Empty;
    switch (cause) {
      case StallCause::Empty: ++stats_.stallEmptyCycles; break;
      case StallCause::HeadBranch:
        ++stats_.stallHeadBranchCycles;
        break;
      case StallCause::HeadMem: ++stats_.stallHeadMemCycles; break;
      case StallCause::HeadExec: ++stats_.stallHeadExecCycles; break;
      case StallCause::Fence: ++stats_.stallFenceCycles; break;
      case StallCause::Structural:
        ++stats_.stallStructuralCycles;
        break;
      default:
        panic("commit-stall classification returned %s",
              stallCauseName(cause));
    }
    NOREBA_EMIT(TraceEventType::CommitStall,
                head ? head->idx : TRACE_NONE,
                head ? head->rec->pc : 0, cause);
}

bool
Core::divUnitFree(const std::vector<Cycle> &units) const
{
    for (Cycle t : units)
        if (t <= cycle_)
            return true;
    return false;
}

void
Core::claimDivUnit(std::vector<Cycle> &units, int latency)
{
    // Unpipelined: the claimed unit is busy until the divide retires.
    for (Cycle &t : units) {
        if (t <= cycle_) {
            t = cycle_ + static_cast<Cycle>(latency);
            return;
        }
    }
    panic("no free divider unit to claim at cycle %llu",
          static_cast<unsigned long long>(cycle_));
}

bool
Core::fuAvailable(FuClass cls)
{
    int used = fuUsed_[static_cast<int>(cls)];
    switch (cls) {
      case FuClass::IntAlu: return used < cfg_.numIntAlu;
      case FuClass::IntMul: return used < cfg_.numIntMul;
      case FuClass::IntDiv:
        return used < cfg_.numIntDiv && divUnitFree(divFreeAt_);
      case FuClass::FpAlu: return used < cfg_.numFpAlu;
      case FuClass::FpMul: return used < cfg_.numFpMul;
      case FuClass::FpDiv:
        return used < cfg_.numFpDiv && divUnitFree(fdivFreeAt_);
      case FuClass::MemRead: return used < cfg_.numLoadPorts;
      case FuClass::MemWrite: return used < cfg_.numStorePorts;
      case FuClass::Branch: return used < cfg_.numBranchUnits;
      default: return true;
    }
}

void
Core::consumeFu(FuClass cls, int latency)
{
    ++fuUsed_[static_cast<int>(cls)];
    if (cls == FuClass::IntDiv)
        claimDivUnit(divFreeAt_, latency);
    else if (cls == FuClass::FpDiv)
        claimDivUnit(fdivFreeAt_, latency);
}

int
Core::loadLatency(InFlight *p, bool &blocked)
{
    const TraceRecord &rec = *p->rec;
    bool forward = false;
    // Probe only the SQ-index buckets the load's byte range can touch
    // (O(overlap candidates), not O(|SQ|)). Bucket membership is
    // necessary but not sufficient: each candidate still takes the
    // exact age and byte-overlap tests the historical full-SQ walk
    // applied.
    if (rec.memSize > 0) {
        const uint64_t lo = rec.addrOrImm;
        const uint64_t chunkLo = lo >> SQ_CHUNK_SHIFT;
        const uint64_t chunkHi = (lo + rec.memSize - 1) >> SQ_CHUNK_SHIFT;
        for (uint64_t c = chunkLo; c <= chunkHi && !blocked; ++c) {
            size_t b = sqBucketLowerBound(c);
            if (b == sqBucketsUsed_ || sqBuckets_[b].chunk != c)
                continue;
            for (InFlight *s : sqBuckets_[b].stores) {
                ++stats_.sqProbes;
                if (s->idx >= p->idx || !memOverlap(*s->rec, rec))
                    continue;
                if (!s->completed) {
                    blocked = true; // wait for the producing store's data
                    break;
                }
                forward = true;
            }
        }
    }
    if (cfg_.shadowSchedulerCheck)
        shadowVerifyForwarding(p, blocked, forward);
    if (blocked)
        return 0;
    startTlbCheck(p);
    int tlbLat = static_cast<int>(p->tlbDoneAt - cycle_);
    if (forward)
        return tlbLat + 2; // store-to-load forwarding
    int cacheLat = mem_.access(rec.addrOrImm, false);
    ++stats_.dcacheAccesses;
    if (cfg_.prefetcher)
        dcpt_.observe(rec.pc, rec.addrOrImm, mem_);
    return tlbLat + cacheLat;
}

void
Core::registerSrcWaiters(InFlight *p)
{
    // Count the sources that are not ready at rename and park on each
    // one's producer. Readiness is monotone for a live consumer (gen
    // only moves by squash, completed never unsets), so each parked
    // source is woken exactly once — when its producer writes back.
    p->pendingSrcs = 0;
    for (int i = 0; i < p->numSrcs; ++i) {
        const InFlight::SrcRef &s = p->srcs[i];
        if (s.ready())
            continue;
        ++p->pendingSrcs;
        int32_t n = waiterFree_;
        if (n >= 0) {
            waiterFree_ = waiterNodes_[static_cast<size_t>(n)].next;
        } else {
            n = static_cast<int32_t>(waiterNodes_.size());
            waiterNodes_.emplace_back();
        }
        waiterNodes_[static_cast<size_t>(n)] = WaiterNode{p, p->gen, -1};
        if (s.p->waitTail >= 0)
            waiterNodes_[static_cast<size_t>(s.p->waitTail)].next = n;
        else
            s.p->waitHead = n;
        s.p->waitTail = n;
    }
    if (p->pendingSrcs == 0)
        readyInsert(p);
}

void
Core::wakeWaiters(InFlight *p)
{
    for (int32_t n = p->waitHead; n >= 0;) {
        const WaiterNode w = waiterNodes_[static_cast<size_t>(n)];
        waiterNodes_[static_cast<size_t>(n)].next = waiterFree_;
        waiterFree_ = n;
        n = w.next;
        InFlight *c = w.p;
        if (c->gen != w.gen)
            continue; // consumer squashed since it parked here
        ++stats_.wakeups;
        if (--c->pendingSrcs == 0)
            readyInsert(c);
        // Store address generation waits only for the address operand,
        // not the data — kick the TLB check as soon as it arrives.
        if (!c->inAddrPending && !c->tlbChecked &&
            isStore(c->rec->op) && c->addrReady())
            addrPendingInsert(c);
    }
    p->waitHead = -1;
    p->waitTail = -1;
}

void
Core::readyInsert(InFlight *p)
{
    panic_if(p->inReadyQ || p->pendingSrcs != 0,
             "bad ready-queue insert for trace idx %d", p->idx);
    p->inReadyQ = true;
    insertBySeq(readyQ_, p);
}

void
Core::addrPendingInsert(InFlight *p)
{
    p->inAddrPending = true;
    insertBySeq(addrPending_, p);
}

size_t
Core::sqBucketLowerBound(uint64_t chunk) const
{
    auto it = std::lower_bound(
        sqBuckets_.begin(),
        sqBuckets_.begin() + static_cast<std::ptrdiff_t>(sqBucketsUsed_),
        chunk,
        [](const SqBucket &b, uint64_t c) { return b.chunk < c; });
    return static_cast<size_t>(it - sqBuckets_.begin());
}

void
Core::sqIndexInsert(InFlight *p)
{
    const TraceRecord &rec = *p->rec;
    if (rec.memSize == 0)
        return; // an empty byte range can never overlap a load
    const uint64_t chunkLo = rec.addrOrImm >> SQ_CHUNK_SHIFT;
    const uint64_t chunkHi =
        (rec.addrOrImm + rec.memSize - 1) >> SQ_CHUNK_SHIFT;
    for (uint64_t c = chunkLo; c <= chunkHi; ++c) {
        size_t b = sqBucketLowerBound(c);
        if (b == sqBucketsUsed_ || sqBuckets_[b].chunk != c) {
            // Open a bucket: rotate the first spare into sorted place.
            if (sqBucketsUsed_ == sqBuckets_.size())
                sqBuckets_.emplace_back();
            auto first = sqBuckets_.begin();
            std::rotate(first + static_cast<std::ptrdiff_t>(b),
                        first + static_cast<std::ptrdiff_t>(sqBucketsUsed_),
                        first + static_cast<std::ptrdiff_t>(sqBucketsUsed_ +
                                                            1));
            ++sqBucketsUsed_;
            sqBuckets_[b].chunk = c;
        }
        sqBuckets_[b].stores.push_back(p);
    }
}

void
Core::sqIndexErase(InFlight *p)
{
    const TraceRecord &rec = *p->rec;
    if (rec.memSize == 0)
        return;
    const uint64_t chunkLo = rec.addrOrImm >> SQ_CHUNK_SHIFT;
    const uint64_t chunkHi =
        (rec.addrOrImm + rec.memSize - 1) >> SQ_CHUNK_SHIFT;
    for (uint64_t c = chunkLo; c <= chunkHi; ++c) {
        size_t b = sqBucketLowerBound(c);
        panic_if(b == sqBucketsUsed_ || sqBuckets_[b].chunk != c,
                 "SQ index lost the bucket for trace idx %d", p->idx);
        std::vector<InFlight *> &bucket = sqBuckets_[b].stores;
        auto e = std::find(bucket.begin(), bucket.end(), p);
        panic_if(e == bucket.end(),
                 "SQ index lost the entry for trace idx %d", p->idx);
        // Swap-and-pop (deterministic, but not order-preserving). The
        // load probe stops at the first incomplete overlapping store,
        // so sqProbes depends on this exact bucket order.
        *e = bucket.back();
        bucket.pop_back();
        if (bucket.empty()) {
            // Close the bucket: rotate it out to the spares.
            auto first = sqBuckets_.begin();
            std::rotate(first + static_cast<std::ptrdiff_t>(b),
                        first + static_cast<std::ptrdiff_t>(b + 1),
                        first + static_cast<std::ptrdiff_t>(sqBucketsUsed_));
            --sqBucketsUsed_;
        }
    }
}

void
Core::shadowSchedulerVerify() const
{
    // Re-derive the ready queue from the naive full-IQ scan the
    // scheduler replaced: at end of cycle, the issuable IQ entries, in
    // seq order, must be exactly the ready queue. (The live IQ vector
    // is unordered — swap-pop removal — so scan a sorted copy, which
    // is also what the historical age-ordered IQ looked like.)
    std::vector<InFlight *> iqSorted = iq_;
    std::sort(iqSorted.begin(), iqSorted.end(),
              [](const InFlight *a, const InFlight *b) {
                  return a->seq < b->seq;
              });
    size_t nReady = 0;
    for (InFlight *p : iqSorted) {
        if (!p->srcsReady())
            continue;
        panic_if(nReady >= readyQ_.size() || readyQ_[nReady] != p ||
                     !p->inReadyQ,
                 "shadow scheduler: IQ entry trace idx %d issuable but "
                 "missing from the ready queue (cycle %llu)",
                 p->idx, static_cast<unsigned long long>(cycle_));
        ++nReady;
    }
    panic_if(nReady != readyQ_.size(),
             "shadow scheduler: ready queue holds %zu entries, naive "
             "scan found %zu (cycle %llu)",
             readyQ_.size(), nReady,
             static_cast<unsigned long long>(cycle_));

    // The pending address-gen list must hold exactly the stores the
    // historical pre-issue sweep would kick: address-ready, TLB check
    // not yet started. (The list may also briefly hold entries whose
    // check started this cycle only after the list drained — there are
    // none at end of cycle, because draining clears it.)
    size_t nPend = 0;
    for (InFlight *p : iqSorted) {
        if (!isStore(p->rec->op) || p->tlbChecked || !p->addrReady())
            continue;
        panic_if(nPend >= addrPending_.size() ||
                     addrPending_[nPend] != p || !p->inAddrPending,
                 "shadow scheduler: store trace idx %d address-ready "
                 "but missing from the pending list (cycle %llu)",
                 p->idx, static_cast<unsigned long long>(cycle_));
        ++nPend;
    }
    panic_if(nPend != addrPending_.size(),
             "shadow scheduler: addr-pending list holds %zu entries, "
             "naive scan found %zu (cycle %llu)",
             addrPending_.size(), nPend,
             static_cast<unsigned long long>(cycle_));

    // The SQ address index must cover sq_ exactly: every in-flight
    // store in every chunk its byte range touches, and nothing else.
    size_t indexed = 0;
    for (size_t b = 0; b < sqBuckets_.size(); ++b) {
        const SqBucket &bucket = sqBuckets_[b];
        panic_if((b < sqBucketsUsed_) == bucket.stores.empty(),
                 "shadow scheduler: SQ-index bucket %zu is %s", b,
                 b < sqBucketsUsed_ ? "live but empty" : "a spare in use");
        panic_if(b > 0 && b < sqBucketsUsed_ &&
                     sqBuckets_[b - 1].chunk >= bucket.chunk,
                 "shadow scheduler: SQ-index buckets out of chunk order");
        for (InFlight *s : bucket.stores) {
            ++indexed;
            const TraceRecord &rec = *s->rec;
            panic_if(std::find(sq_.begin(), sq_.end(), s) == sq_.end(),
                     "shadow scheduler: SQ index holds trace idx %d "
                     "which is not in the SQ", s->idx);
            panic_if(rec.memSize == 0 ||
                         bucket.chunk <
                             (rec.addrOrImm >> SQ_CHUNK_SHIFT) ||
                         bucket.chunk > ((rec.addrOrImm + rec.memSize - 1) >>
                                         SQ_CHUNK_SHIFT),
                     "shadow scheduler: trace idx %d indexed under a "
                     "chunk outside its byte range", s->idx);
        }
    }
    size_t expected = 0;
    for (InFlight *s : sq_) {
        const TraceRecord &rec = *s->rec;
        if (rec.memSize == 0)
            continue;
        expected += static_cast<size_t>(
            ((rec.addrOrImm + rec.memSize - 1) >> SQ_CHUNK_SHIFT) -
            (rec.addrOrImm >> SQ_CHUNK_SHIFT) + 1);
    }
    panic_if(indexed != expected,
             "shadow scheduler: SQ index holds %zu entries, expected "
             "%zu (cycle %llu)",
             indexed, expected, static_cast<unsigned long long>(cycle_));
}

void
Core::shadowVerifyForwarding(const InFlight *p, bool blocked,
                             bool forward) const
{
    // Replay the historical full-SQ walk and compare its verdict with
    // the chunk-index probe's.
    bool naiveBlocked = false, naiveForward = false;
    for (InFlight *s : sq_) {
        if (s->idx >= p->idx)
            break; // sq_ is ascending in trace order
        if (!memOverlap(*s->rec, *p->rec))
            continue;
        if (!s->completed) {
            naiveBlocked = true;
            break;
        }
        naiveForward = true;
    }
    panic_if(naiveBlocked != blocked ||
                 (!blocked && naiveForward != forward),
             "shadow scheduler: load trace idx %d forwarding verdict "
             "diverged (index blocked=%d forward=%d, naive blocked=%d "
             "forward=%d)",
             p->idx, blocked ? 1 : 0, forward ? 1 : 0,
             naiveBlocked ? 1 : 0, naiveForward ? 1 : 0);
}

void
Core::issueStage()
{
    std::fill(std::begin(fuUsed_), std::end(fuUsed_), 0);
    int budget = cfg_.issueWidth;

    // Store address generation is decoupled from store data: the
    // page-table check (which gates NOREBA steering and the C2 memory
    // barrier) needs only the address operand. Stores land on the
    // pending list the moment that operand writes back (or at dispatch
    // when it is already available), in dispatch order — the same
    // stores, in the same order, the historical full-IQ sweep found.
    for (InFlight *p : addrPending_) {
        p->inAddrPending = false;
        if (!p->tlbChecked)
            startTlbCheck(p);
    }
    addrPending_.clear();

    stats_.readyQueueOccupancy += readyQ_.size();
    stats_.iqScansAvoided += iq_.size() - readyQ_.size();

    // Pop ready entries in age order. Entries that stay — FU busy,
    // issue width exhausted, or a load blocked on an incomplete older
    // store's data — remain queued and retry next cycle.
    size_t out = 0;
    for (size_t i = 0; i < readyQ_.size(); ++i) {
        InFlight *p = readyQ_[i];
        bool keep = true;
        if (budget > 0) {
            const TraceRecord &rec = *p->rec;
            FuClass cls = fuClass(rec.op);
            if (fuAvailable(cls)) {
                int latency = 0;
                bool blocked = false;
                if (isLoad(rec.op)) {
                    latency = loadLatency(p, blocked);
                } else if (isStore(rec.op)) {
                    if (!p->tlbChecked)
                        startTlbCheck(p);
                    latency = 1;
                } else {
                    latency = execLatency(rec.op);
                }
                if (!blocked) {
                    NOREBA_EMIT(TraceEventType::Issue, p->idx, rec.pc,
                                StallCause::None);
                    consumeFu(cls, latency);
                    p->issued = true;
                    p->inIq = false;
                    --iqUsed_;
                    ++stats_.issued;
                    switch (cls) {
                      case FuClass::IntAlu:
                      case FuClass::Branch:
                        ++stats_.intAluOps;
                        break;
                      case FuClass::IntMul:
                      case FuClass::IntDiv:
                        ++stats_.cmplxAluOps;
                        break;
                      case FuClass::FpAlu:
                      case FuClass::FpMul:
                      case FuClass::FpDiv:
                        ++stats_.fpAluOps;
                        break;
                      default:
                        break;
                    }
                    stats_.rfReads +=
                        static_cast<uint64_t>(p->numSrcs);
                    events_.push(Event{cycle_ +
                                           static_cast<Cycle>(latency),
                                       p->seq, p, p->gen});
                    --budget;
                    keep = false;
                }
            }
        }
        if (keep) {
            readyQ_[out++] = p;
        } else {
            p->inReadyQ = false;
            iqErase(p);
        }
    }
    readyQ_.resize(out);
}

void
Core::dispatchStage()
{
    int budget = cfg_.dispatchWidth;
    bool chargedWindowStall = false;
    while (budget > 0 && !decodedQ_.empty()) {
        InFlight *p = decodedQ_.front();
        if (p->decodeReadyAt > cycle_)
            break;
        const TraceRecord &rec = *p->rec;
        FuClass cls = fuClass(rec.op);

        if (!policy_->windowHasSpace(view_)) {
            if (!chargedWindowStall) {
                ++stats_.windowFullCycles;
                chargedWindowStall = true;
            }
            break;
        }
        if (cls != FuClass::None && iqUsed_ >= cfg_.iqEntries)
            break;
        if (isLoad(rec.op) && lqUsed_ >= cfg_.lqEntries)
            break;
        if (isStore(rec.op) && sqUsed_ >= cfg_.sqEntries)
            break;
        if (recHasDest(rec) && physUsed_ >= cfg_.rfEntries)
            break;

        decodedQ_.pop_front();
        p->dispatched = true;
        p->seq = nextSeq_++;
        p->isBranch = rec.isBranchSite();

        // Rename: resolve sources against the latest producers.
        p->numSrcs = 0;
        for (Reg r : {rec.rs1, rec.rs2, rec.rs3}) {
            if (r == REG_NONE || r == REG_ZERO)
                continue;
            if (isMem(rec.op) && r == rec.rs1)
                p->addrSrc = p->numSrcs; // address operand
            p->srcs[p->numSrcs++] = renameTable_[r];
        }
        if (recHasDest(rec)) {
            renameTable_[rec.rd] = {p, p->gen};
            ++physUsed_;
        }
        ++stats_.renameOps;
        ++stats_.robWrites;
        ++stats_.dispatched;

        rob_.push_back(p);
        p->inRob = true;
        ++windowUsed_;
        index_.onDispatch(p);

        if (cls == FuClass::None) {
            p->completed = true; // NOP/HALT: nothing to execute
        } else {
            iq_.push_back(p);
            p->iqPos = static_cast<int>(iq_.size()) - 1;
            p->inIq = true;
            ++iqUsed_;
            ++stats_.iqWrites;
            registerSrcWaiters(p);
        }
        if (isLoad(rec.op))
            ++lqUsed_;
        else if (isStore(rec.op)) {
            ++sqUsed_;
            sq_.push_back(p);
            sqIndexInsert(p);
            if (p->addrReady())
                addrPendingInsert(p);
        }

        if (cfg_.attributeStalls) {
            if (p->isBranch)
                ++stats_.branchStalls[rec.pc].instances;
            if (rec.guardIdx >= 0)
                ++stats_.branchStalls[trace_[rec.guardIdx].pc]
                      .dependents;
        }

        NOREBA_EMIT(TraceEventType::Dispatch, p->idx, rec.pc,
                    StallCause::None);
        policy_->onDispatch(view_, p);
        --budget;
    }
}

void
Core::decodeStage()
{
    int budget = cfg_.decodeWidth;
    const size_t decodedCap =
        static_cast<size_t>(4 * cfg_.dispatchWidth);
    while (budget > 0 && !ifq_.empty() &&
           decodedQ_.size() < decodedCap) {
        InFlight *p = ifq_.front();
        if (p->fetchAt + static_cast<Cycle>(cfg_.fetchToDecode) > cycle_)
            break;
        ifq_.pop_front();
        --budget;
        const TraceRecord &rec = *p->rec;
        if (rec.isSetup()) {
            // Setup instructions program the BIT/DCT and are dropped
            // (Section 4.1): they consumed a fetch slot only.
            if (rec.op == Opcode::SET_BRANCH_ID)
                ++stats_.bitOps;
            else
                ++stats_.dctOps;
            committed_[static_cast<size_t>(p->idx)] = 1;
            free(p);
            continue;
        }
        ++stats_.dctOps; // every instruction checks the DCT counter
        if (committed_[static_cast<size_t>(p->idx)]) {
            // Re-fetch of an instruction that already committed
            // out-of-order: CIT hit, dropped at decode (Section 4.3).
            // Every policy, the speculative oracles included, pays this
            // fetch slot: their "no misspeculation penalty" is the
            // architectural rollback a trace-driven model never needs,
            // while the pipeline flush and refetch are real in every
            // design.
            ++stats_.citDrops;
            ++stats_.citOps;
            free(p);
            continue;
        }
        p->decodeReadyAt = cycle_ + static_cast<Cycle>(
                                        cfg_.decodeToDispatch);
        decodedQ_.push_back(p);
    }
}

void
Core::fetchStage()
{
    if (cycle_ < fetchResumeAt_)
        return;
    int budget = cfg_.fetchWidth;
    while (budget > 0 && fetchIdx_ < static_cast<TraceIdx>(trace_.size()) &&
           ifq_.size() < static_cast<size_t>(cfg_.ifqEntries)) {
        const TraceRecord &rec = trace_[static_cast<size_t>(
            fetchIdx_)];
        uint64_t line = rec.pc >> 6;
        if (line != lastFetchLine_) {
            ++stats_.icacheAccesses;
            int latency = mem_.fetchAccess(rec.pc);
            lastFetchLine_ = line;
            if (latency > 0) {
                fetchResumeAt_ = cycle_ + static_cast<Cycle>(latency);
                stats_.icacheStallCycles +=
                    static_cast<uint64_t>(latency);
                break;
            }
        }
        InFlight *p = alloc();
        p->idx = fetchIdx_;
        p->rec = &rec;
        p->fetchAt = cycle_;
        p->mispredicted = misp_[static_cast<size_t>(fetchIdx_)] != 0;
        ifq_.push_back(p);
        NOREBA_EMIT(TraceEventType::Fetch, p->idx, rec.pc,
                    StallCause::None);
        ++stats_.fetched;
        if (rec.isSetup())
            ++stats_.setupFetched;
        if (rec.isBranchSite())
            ++stats_.bpredLookups;
        ++fetchIdx_;
        --budget;
        // A taken control transfer ends the fetch group.
        if ((rec.isBranchSite() && rec.taken) || rec.op == Opcode::JAL)
            break;
    }
}

CoreStats
Core::run()
{
    const TraceIdx end = static_cast<TraceIdx>(trace_.size());
    TraceIdx lastCursor = -1;
    Cycle lastProgress = 0;

    while (cursor_ < end) {
        writebackStage();
        commitStage();
        issueStage();
        dispatchStage();
        decodeStage();
        fetchStage();

        if (cfg_.shadowIndexCheck)
            index_.shadowVerify(rob_, cycle_, trace_);
        if (cfg_.shadowSchedulerCheck)
            shadowSchedulerVerify();

        if (cursor_ != lastCursor) {
            lastCursor = cursor_;
            lastProgress = cycle_;
        } else if (cycle_ - lastProgress > 500000) {
            panic("no forward progress for 500k cycles at trace idx %d "
                  "(policy %s, rob %zu, windowUsed %d)",
                  cursor_, policy_->name(), rob_.size(), windowUsed_);
        }
        ++cycle_;
    }

    stats_.cycles = cycle_;
    stats_.l2Accesses = mem_.l2().hits() + mem_.l2().misses();
    stats_.l3Accesses = mem_.l3().hits() + mem_.l3().misses();

    // The attribution counters must partition the run: each cycle is
    // either a full-width commit cycle or charged to one stall cause.
    uint64_t causes = stats_.stallEmptyCycles +
                      stats_.stallHeadBranchCycles +
                      stats_.stallHeadMemCycles +
                      stats_.stallHeadExecCycles +
                      stats_.stallFenceCycles +
                      stats_.stallStructuralCycles;
    panic_if(causes != stats_.commitStallCycles,
             "stall causes (%llu) do not sum to commitStallCycles "
             "(%llu) under policy %s",
             static_cast<unsigned long long>(causes),
             static_cast<unsigned long long>(stats_.commitStallCycles),
             policy_->name());
    panic_if(stats_.commitStallCycles + stats_.commitWidthFullCycles !=
                 stats_.cycles,
             "stall + full-width cycles (%llu) do not sum to total "
             "cycles (%llu) under policy %s",
             static_cast<unsigned long long>(
                 stats_.commitStallCycles +
                 stats_.commitWidthFullCycles),
             static_cast<unsigned long long>(stats_.cycles),
             policy_->name());
    return stats_;
}

} // namespace noreba
