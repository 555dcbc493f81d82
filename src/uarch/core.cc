#include "uarch/core.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "uarch/commit/noreba.h"
#include "uarch/commit/policies.h"

/**
 * Pipeline-event emission: a single null test unless an observer is
 * attached. Emission never touches CoreStats, so observing cannot
 * perturb results.
 */
#define NOREBA_EMIT(type, idx, pc, cause)                                 \
    do {                                                                  \
        if (observer_)                                                    \
            observer_->onEvent({cycle_, (pc), (idx), (type), (cause)});   \
    } while (0)

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

} // namespace

Core::Core(const CoreConfig &cfg, TraceView trace,
           const std::vector<uint8_t> &misp)
    : cfg_(cfg), trace_(std::move(trace)), misp_(misp),
      tlb_(TLB_ENTRIES, TLB_MISS_PENALTY),
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
    view_.index_ = &index_;
    view_.core_ = this;
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
    uint64_t gen = p->gen;
    *p = BLANK_INFLIGHT;
    p->gen = gen + 1;
    return p;
}

void
Core::free(InFlight *p)
{
    panic_if(p->inFrontier,
             "freeing trace idx %d while still on the uncommitted "
             "frontier",
             p->idx);
    ++p->gen; // consumers' SrcRefs to this slot read ready from now on
    freeList_.push_back(p);
}

void
Core::startTlbCheck(InFlight *p)
{
    int tlbLat = tlb_.access(p->rec.addrOrImm);
    p->tlbChecked = true;
    p->tlbDoneAt = cycle_ + static_cast<Cycle>(tlbLat);
}

void
Core::commit(InFlight *p)
{
    panic_if(p->committed, "double commit of trace idx %d", p->idx);
    // PipelineIndex::oldestUnresolved() is the C5 barrier only while
    // no other policy retires an unresolved branch.
    panic_if(cfg_.shadowChecks && p->isBranch && !p->resolved &&
                 cfg_.commitMode != CommitMode::SpeculativeBR &&
                 cfg_.commitMode != CommitMode::SpeculativeFull,
             "%s retired unresolved branch %d",
             commitModeName(cfg_.commitMode), p->idx);
    if (observer_) {
        observer_->onCommit(view_, *p);
        observer_->onEvent({cycle_, p->rec.pc, p->idx,
                            TraceEventType::Commit, StallCause::None});
    }
    committed_[static_cast<size_t>(p->idx)] = 1;
    p->committed = true;
    ++commitsThisCycle_;
    ++stats_.committedInsts;
    // "Committed out of order" in the paper's sense: retired while an
    // older branch was still unresolved (Condition 5 relaxed).
    if (index_.oldestUnresolved() < p->idx)
        ++stats_.committedOoO;
    if (p->idx > cursor_)
        ++stats_.committedAhead;
    index_.onCommit(p);

    ++stats_.robReads;
    releaseResources(p);
    const TraceRecord &rec = p->rec;
    if (isMem(rec.op))
        ++stats_.lsqOps;
    if (isStore(rec.op)) {
        // Retire the store into the memory system.
        mem_.access(rec.addrOrImm, true);
        ++stats_.dcacheAccesses;
        auto it = std::find(sq_.begin(), sq_.end(), p);
        if (it != sq_.end())
            sq_.erase(it.pos());
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
    const TraceRecord &rec = p->rec;
    if (recHasDest(rec))
        --physUsed_;
    if (isLoad(rec.op))
        --lqUsed_;
}

void
Core::rebuildRenameTable()
{
    for (auto &ref : renameTable_)
        ref = InFlight::SrcRef{};
    for (InFlight *p = index_.frontierHead(); p;
         p = PipelineIndex::frontierNext(p)) {
        if (recHasDest(p->rec))
            renameTable_[p->rec.rd] = {p, p->gen};
    }
}

template <typename P>
void
Core::squashAfter(P &policy, InFlight *b)
{
    ++stats_.squashes;
    NOREBA_EMIT(TraceEventType::Squash, b->idx, b->rec.pc,
                StallCause::None);

    // Front end restarts on the correct path after the redirect.
    for (InFlight *p : ifq_)
        free(p);
    ifq_.clear();
    for (InFlight *p : decodedQ_)
        free(p);
    decodedQ_.clear();
    fetchIdx_ = b->idx + 1;
    fetchResumeAt_ = std::max(fetchResumeAt_, cycle_ + REDIRECT_PENALTY);
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

    // Committed-early zombies stay in the IQ and still issue; sq_
    // holds only uncommitted stores in ascending trace order, so the
    // squashed entries are exactly its tail.
    auto isSquashed = [b](InFlight *p) { return p->idx > b->idx; };
    iq_.erase(std::remove_if(iq_.begin(), iq_.end(),
                             [&](InFlight *p) {
                                 return !p->committed && isSquashed(p);
                             }),
              iq_.end());
    while (!sq_.empty() && isSquashed(sq_.back()))
        sq_.pop_back();

    policy.onSquash(view_, b->idx);

    for (InFlight *p : squashed_)
        free(p);

    rebuildRenameTable();
}

template <typename P>
void
Core::writebackStage(P &policy)
{
    completions_.drain(cycle_, [&](const CompletionWheel::Event &e) {
        InFlight *p = e.p;
        if (p->gen != e.gen)
            return; // squashed and recycled
        p->completed = true;
        ++stats_.cdbBroadcasts;
        if (recHasDest(p->rec))
            ++stats_.rfWrites;
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
                squashAfter(policy, p);
            }
        }
        // An early-reclaimed zombie finishing after commit.
        if (p->committed && !p->inRob)
            free(p);
    });
}

template <typename P>
void
Core::commitStage(P &policy)
{
    commitsThisCycle_ = 0;
    policy.commitCycle(view_);
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
        TraceIdx b = index_.oldestUnresolved();
        if (cfg_.attributeStalls && b != INT32_MAX) {
            // Figure 7: charge the stalled cycle to the oldest branch
            // that is still unresolved — the one in-order commit (and
            // every non-speculative OoO-commit condition) is waiting
            // for before the window can drain.
            ++stats_.branchStalls[trace_.pcOf(static_cast<size_t>(b))]
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
    StallCause cause = head ? policy.classifyStall(view_, head)
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
                head ? head->rec.pc : 0, cause);
}

// Each divider class is one unpipelined unit, tracked by one
// busy-until cycle.
static_assert(NUM_INT_DIV == 1 && NUM_FP_DIV == 1,
              "one busy-until cycle per divider class");

bool
Core::fuAvailable(FuClass cls)
{
    int used = fuUsed_[static_cast<int>(cls)];
    switch (cls) {
      case FuClass::IntAlu: return used < NUM_INT_ALU;
      case FuClass::IntMul: return used < NUM_INT_MUL;
      case FuClass::IntDiv:
        return used < NUM_INT_DIV && divBusyUntil_ <= cycle_;
      case FuClass::FpAlu: return used < NUM_FP_ALU;
      case FuClass::FpMul: return used < NUM_FP_MUL;
      case FuClass::FpDiv:
        return used < NUM_FP_DIV && fdivBusyUntil_ <= cycle_;
      case FuClass::MemRead: return used < NUM_LOAD_PORTS;
      case FuClass::MemWrite: return used < NUM_STORE_PORTS;
      case FuClass::Branch: return used < NUM_BRANCH_UNITS;
      default: return true;
    }
}

void
Core::consumeFu(FuClass cls, int latency)
{
    ++fuUsed_[static_cast<int>(cls)];
    // Unpipelined: the divider is busy until the divide retires.
    if (cls == FuClass::IntDiv)
        divBusyUntil_ = cycle_ + static_cast<Cycle>(latency);
    else if (cls == FuClass::FpDiv)
        fdivBusyUntil_ = cycle_ + static_cast<Cycle>(latency);
}

int
Core::loadLatency(InFlight *p, bool &blocked)
{
    const TraceRecord &rec = p->rec;
    bool forward = false;
    // Walk the older in-flight stores: any overlapping one whose data
    // has not written back blocks the load; otherwise an overlapping
    // completed one forwards.
    for (InFlight *s : sq_) {
        if (s->idx >= p->idx)
            break; // sq_ is ascending in trace order
        if (!memOverlap(s->rec, rec))
            continue;
        if (!s->completed) {
            blocked = true; // wait for the producing store's data
            return 0;
        }
        forward = true;
    }
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
Core::shadowCapacityVerify() const
{
    shadowCheckCapacity(view_, "IQ", iq_.size(), cfg_.iqEntries);
    shadowCheckCapacity(view_, "LQ", static_cast<size_t>(lqUsed_),
                        cfg_.lqEntries);
    shadowCheckCapacity(view_, "SQ", sq_.size(), cfg_.sqEntries);
    shadowCheckCapacity(view_, "PRF", static_cast<size_t>(physUsed_),
                        cfg_.rfEntries);
}

void
Core::issueStage()
{
    std::fill(std::begin(fuUsed_), std::end(fuUsed_), 0);
    int budget = ISSUE_WIDTH;

    // Store address generation is decoupled from store data: the
    // page-table check (which gates NOREBA steering and the C2 memory
    // barrier) needs only the address operand, so every address-ready
    // store starts it before the issue walk, oldest first. TLB access
    // order decides CoreStats, and walking sq_ gives the stores of an
    // oldest-first IQ sweep in the same order:
    //  - a store leaves sq_ only by squash, or by a commit that every
    //    policy allows only once its TLB check is done, so no store
    //    still waiting for its check is in the IQ but not in sq_;
    //  - sq_ is in trace order, which equals dispatch order for live
    //    stores (a squash drops every uncommitted younger store, and
    //    the refetched ones dispatch after the survivors).
    for (InFlight *p : sq_)
        if (!p->tlbChecked && p->addrReady())
            startTlbCheck(p);

    // Oldest first: issue ready entries while width and FUs last.
    // Entries that stay (sources not ready, FU busy, width exhausted,
    // or a load blocked on an incomplete older store's data) keep
    // their place and retry next cycle.
    size_t out = 0;
    for (InFlight *p : iq_) {
        bool keep = true;
        if (budget > 0 && p->srcsReady()) {
            const TraceRecord &rec = p->rec;
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
                    completions_.push(cycle_,
                                      cycle_ + static_cast<Cycle>(latency),
                                      p->seq, p, p->gen);
                    --budget;
                    keep = false;
                }
            }
        }
        if (keep)
            iq_[out++] = p;
    }
    iq_.resize(out);
}

template <typename P>
void
Core::dispatchStage(P &policy)
{
    int budget = DISPATCH_WIDTH;
    bool chargedWindowStall = false;
    while (budget > 0 && !decodedQ_.empty()) {
        InFlight *p = decodedQ_.front();
        if (p->decodeReadyAt > cycle_)
            break;
        const TraceRecord &rec = p->rec;
        FuClass cls = fuClass(rec.op);

        if (!policy.windowHasSpace(view_)) {
            if (!chargedWindowStall) {
                ++stats_.windowFullCycles;
                chargedWindowStall = true;
            }
            break;
        }
        if (cls != FuClass::None &&
            iq_.size() >= static_cast<size_t>(cfg_.iqEntries))
            break;
        if (isLoad(rec.op) && lqUsed_ >= cfg_.lqEntries)
            break;
        if (isStore(rec.op) &&
            sq_.size() >= static_cast<size_t>(cfg_.sqEntries))
            break;
        if (recHasDest(rec) && physUsed_ >= cfg_.rfEntries)
            break;

        decodedQ_.pop_front();
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
        index_.onDispatch(p);

        if (cls == FuClass::None) {
            p->completed = true; // NOP/HALT: nothing to execute
        } else {
            iq_.push_back(p);
            ++stats_.iqWrites;
        }
        if (isLoad(rec.op))
            ++lqUsed_;
        else if (isStore(rec.op))
            sq_.push_back(p);

        if (cfg_.attributeStalls) {
            if (p->isBranch)
                ++stats_.branchStalls[rec.pc].instances;
            if (rec.guardIdx >= 0) {
                const uint64_t guardPc =
                    trace_.pcOf(static_cast<size_t>(rec.guardIdx));
                ++stats_.branchStalls[guardPc].dependents;
            }
        }

        NOREBA_EMIT(TraceEventType::Dispatch, p->idx, rec.pc,
                    StallCause::None);
        policy.onDispatch(view_, p);
        --budget;
    }
}

void
Core::decodeStage()
{
    int budget = DECODE_WIDTH;
    constexpr size_t decodedCap = 4 * DISPATCH_WIDTH;
    while (budget > 0 && !ifq_.empty() &&
           decodedQ_.size() < decodedCap) {
        InFlight *p = ifq_.front();
        if (p->fetchAt + FETCH_TO_DECODE > cycle_)
            break;
        ifq_.pop_front();
        --budget;
        const TraceRecord &rec = p->rec;
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
        p->decodeReadyAt = cycle_ + DECODE_TO_DISPATCH;
        decodedQ_.push_back(p);
    }
}

void
Core::fetchStage()
{
    if (cycle_ < fetchResumeAt_)
        return;
    int budget = FETCH_WIDTH;
    while (budget > 0 && fetchIdx_ < static_cast<TraceIdx>(trace_.size()) &&
           ifq_.size() < IFQ_ENTRIES) {
        const uint64_t pc = trace_.pcOf(static_cast<size_t>(fetchIdx_));
        uint64_t line = pc >> 6;
        if (line != lastFetchLine_) {
            ++stats_.icacheAccesses;
            int latency = mem_.fetchAccess(pc);
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
        p->rec = trace_[static_cast<size_t>(fetchIdx_)];
        const TraceRecord &rec = p->rec;
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
    switch (cfg_.commitMode) {
      case CommitMode::InOrder: return runWith(InOrderCommit{});
      case CommitMode::NonSpecOoO: return runWith(NonSpecOoOCommit{});
      case CommitMode::Noreba: return runWith(NorebaCommit(cfg_));
      case CommitMode::IdealReconv: return runWith(IdealReconvCommit{});
      case CommitMode::SpeculativeBR:
        return runWith(SpeculativeCommit<true>{});
      case CommitMode::SpeculativeFull:
        return runWith(SpeculativeCommit<false>{});
      case CommitMode::ValidationBuffer:
        return runWith(ValidationBufferCommit{});
    }
    fatal("unknown commit mode %d", static_cast<int>(cfg_.commitMode));
}

template <typename P>
CoreStats
Core::runWith(P policy)
{
    const TraceIdx end = static_cast<TraceIdx>(trace_.size());
    TraceIdx lastCursor = -1;
    Cycle lastProgress = 0;

    while (cursor_ < end) {
        writebackStage(policy);
        commitStage(policy);
        issueStage();
        dispatchStage(policy);
        decodeStage();
        fetchStage();

        if (cfg_.shadowChecks) {
            index_.shadowVerify(rob_, cycle_, trace_);
            shadowCapacityVerify();
            policy.shadowCheckCapacities(view_);
        }

        if (cursor_ != lastCursor) {
            lastCursor = cursor_;
            lastProgress = cycle_;
        } else if (cycle_ - lastProgress > 500000) {
            panic("no forward progress for 500k cycles at trace idx %d "
                  "(policy %s, rob %zu, window %zu)",
                  cursor_, commitModeName(cfg_.commitMode), rob_.size(),
                  index_.frontierSize());
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
             commitModeName(cfg_.commitMode));
    panic_if(stats_.commitStallCycles + stats_.commitWidthFullCycles !=
                 stats_.cycles,
             "stall + full-width cycles (%llu) do not sum to total "
             "cycles (%llu) under policy %s",
             static_cast<unsigned long long>(
                 stats_.commitStallCycles +
                 stats_.commitWidthFullCycles),
             static_cast<unsigned long long>(stats_.cycles),
             commitModeName(cfg_.commitMode));
    return stats_;
}

} // namespace noreba
