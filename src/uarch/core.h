/**
 * @file
 * Trace-driven, cycle-level out-of-order core. The pipeline models
 * fetch (IFQ + predictor + L1I), decode (setup-instruction dropping and
 * CIT re-fetch filtering), rename/dispatch (ROB/IQ/LQ/SQ/PRF limits),
 * issue (FU pools, cache hierarchy + DCPT, store-to-load forwarding),
 * writeback (wakeup, branch resolution, misprediction squash) and a
 * pluggable commit stage (see uarch/commit/).
 *
 * Issue is wakeup-driven, not polling: every dispatched instruction
 * counts its unready sources and parks on each producer's waiter list;
 * the producer's writeback delivers the wakeups and the instruction
 * enters an age-ordered ready queue exactly when its last operand
 * arrives. issueStage pops ready entries instead of re-checking
 * srcsReady() on the whole IQ, store address-gen TLB kickoffs come off
 * a pending list instead of a full-IQ sweep, and loads probe an
 * address-chunked SQ index instead of walking every in-flight store.
 * CoreConfig::shadowSchedulerCheck re-derives all of it from the naive
 * scans each cycle and panics on divergence.
 *
 * Commit policies never touch the Core class: they consume a
 * PipelineView (uarch/pipeline_view.h), a narrow facade whose ordering
 * queries are answered by the incrementally maintained PipelineIndex.
 * The core drives the index from the pipeline events themselves —
 * dispatch, branch resolution, TLB-check start, commit, squash, pool
 * recycle — so no per-cycle ROB scan is ever needed.
 *
 * Misprediction handling: fetch continues past a mispredicted branch
 * (the subsequent correct-path trace stands in for wrong-path fetch);
 * at resolution, younger *uncommitted* instructions are squashed and
 * re-fetched after the redirect penalty, while instructions that a
 * policy already committed out-of-order are dropped at decode on their
 * re-fetch — consuming a fetch slot — exactly the paper's CIT flow
 * (Section 4.3).
 */

#ifndef NOREBA_UARCH_CORE_H
#define NOREBA_UARCH_CORE_H

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/ring.h"
#include "trace/event_log.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/commit/commit_policy.h"
#include "uarch/config.h"
#include "uarch/inflight.h"
#include "uarch/pipeline_index.h"
#include "uarch/pipeline_view.h"
#include "uarch/prefetcher.h"
#include "uarch/stats.h"

namespace noreba {

class Core
{
  public:
    /**
     * @param cfg    core configuration
     * @param trace  view of the dynamic trace to replay (in-memory or
     *               mmap-backed; the backing must outlive the core)
     * @param misp   per-record misprediction verdicts
     *               (precomputeMispredictions)
     */
    Core(const CoreConfig &cfg, TraceView trace,
         const std::vector<uint8_t> &misp);
    ~Core();

    /** Simulate until every trace record has committed. */
    CoreStats run();

    /**
     * Test-only observation hook, invoked on every commit with the
     * retiring instruction (before resources are released). Used by the
     * dynamic safety checker in the test suite.
     */
    std::function<void(const PipelineView &, const InFlight &)>
        commitHook;

    /**
     * Record pipeline events into an externally owned log (replaces
     * the config-owned one, if any). Emission never touches CoreStats;
     * pass nullptr to detach.
     */
    void attachEventLog(EventLog *log) { eventLog_ = log; }

    /** The active event log, or nullptr when tracing is off. */
    EventLog *eventLog() const { return eventLog_; }

  private:
    friend class PipelineView; // commit() forwarding only

    /** @name Pipeline stages (one call per cycle each) @{ */
    void writebackStage();
    void commitStage();
    void issueStage();
    void dispatchStage();
    void decodeStage();
    void fetchStage();
    /** @} */

    /** Retire one instruction: resources freed, stats updated. */
    void commit(InFlight *p);

    /** Squash everything younger than `b` that has not committed. */
    void squashAfter(InFlight *b);

    /** Release pool storage (bumps the generation). */
    void free(InFlight *p);
    InFlight *alloc();

    /** The instruction finished its address generation: start the
     *  page-table check and index it for the C2 memory barrier. */
    void startTlbCheck(InFlight *p);

    void releaseResources(InFlight *p);
    void rebuildRenameTable();
    void advanceCursor();
    int loadLatency(InFlight *p, bool &blocked);
    bool fuAvailable(FuClass cls);
    void consumeFu(FuClass cls, int latency);
    bool divUnitFree(const std::vector<Cycle> &units) const;
    void claimDivUnit(std::vector<Cycle> &units, int latency);

    /** @name Wakeup-driven scheduler (see DESIGN.md §12) @{ */

    /** O(1) removal from the unordered IQ vector (swap-pop). */
    void iqErase(InFlight *p);

    /** Park @p p on each unready producer; queue it if none. */
    void registerSrcWaiters(InFlight *p);

    /** Deliver @p p's completion to its registered consumers. */
    void wakeWaiters(InFlight *p);

    /** Enter the age-ordered ready queue. */
    void readyInsert(InFlight *p);

    /** The store became address-ready: queue its TLB kickoff. */
    void addrPendingInsert(InFlight *p);

    /** Index / unindex an in-flight store by address chunk. */
    void sqIndexInsert(InFlight *p);
    void sqIndexErase(InFlight *p);

    /** Position of the first live SQ-index bucket whose chunk is not
     *  below @p chunk (sqBucketsUsed_ if none). */
    size_t sqBucketLowerBound(uint64_t chunk) const;

    /** Differential check: recompute ready/pending/forwarding state
     *  from the naive IQ/SQ scans and panic on divergence
     *  (CoreConfig::shadowSchedulerCheck). */
    void shadowSchedulerVerify() const;
    void shadowVerifyForwarding(const InFlight *p, bool blocked,
                                bool forward) const;
    /** @} */

    const CoreConfig cfg_;
    const TraceView trace_;
    const std::vector<uint8_t> &misp_;

    std::unique_ptr<CommitPolicy> policy_;
    MemoryHierarchy mem_;
    DcptPrefetcher dcpt_;
    Tlb tlb_;

    /** @name Object pool @{ */

    /** Slots per pool chunk; the pool grows a chunk at a time and
     *  never shrinks, so slot addresses stay stable. */
    static constexpr size_t POOL_CHUNK = 128;
    std::vector<std::unique_ptr<InFlight[]>> storage_;
    std::vector<InFlight *> freeList_;
    /** @} */

    /** @name Front end @{ */
    TraceIdx fetchIdx_ = 0;
    Cycle fetchResumeAt_ = 0;
    uint64_t lastFetchLine_ = ~0ull;
    Ring<InFlight *> ifq_;
    Ring<InFlight *> decodedQ_;
    /** @} */

    /** @name Window @{ */
    Ring<InFlight *> rob_; //!< master order; may hold committed
    /** Issue-queue residents, UNORDERED (O(1) swap-pop removal via
     *  InFlight::iqPos); age order lives in readyQ_. */
    std::vector<InFlight *> iq_;
    Ring<InFlight *> sq_; //!< in-flight stores (forwarding)
    int windowUsed_ = 0;
    int iqUsed_ = 0;
    int lqUsed_ = 0;
    int sqUsed_ = 0;
    int physUsed_ = 0;
    InFlight::SrcRef renameTable_[NUM_ARCH_REGS];
    uint64_t nextSeq_ = 1;
    /** @} */

    /** @name Execution @{ */
    struct Event
    {
        Cycle cycle;
        uint64_t seq;
        InFlight *p;
        uint64_t gen;
        bool operator>(const Event &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    /** Per-cycle FU accounting: counts used this cycle per class. */
    int fuUsed_[static_cast<int>(FuClass::NUM_CLASSES)] = {};
    /** Unpipelined dividers: one busy-until timestamp per unit. */
    std::vector<Cycle> divFreeAt_;
    std::vector<Cycle> fdivFreeAt_;
    /** @} */

    /** @name Wakeup-driven scheduler @{ */

    /** Issuable IQ entries (every source ready), in dispatch (seq)
     *  order — exactly the entries the historical per-cycle IQ scan
     *  would have issued from, discovered by wakeup instead. */
    std::vector<InFlight *> readyQ_;

    /** A consumer parked on a producer until it writes back. */
    struct WaiterNode
    {
        InFlight *p = nullptr;
        uint64_t gen = 0; //!< consumer incarnation (stale after squash)
        int32_t next = -1;
    };

    /** Every producer's waiter chain (InFlight::waitHead) lives here;
     *  drained nodes go on a free chain, so the arena is sized by the
     *  most waiters ever parked at once. */
    std::vector<WaiterNode> waiterNodes_;
    int32_t waiterFree_ = -1;

    /** Address-ready stores awaiting their decoupled address-gen TLB
     *  kickoff, in dispatch order (replaces the full-IQ pre-scan). */
    std::vector<InFlight *> addrPending_;

    /** In-flight stores whose byte range touches one address chunk. */
    struct SqBucket
    {
        uint64_t chunk = 0;
        std::vector<InFlight *> stores;
    };

    /**
     * In-flight (uncommitted) stores bucketed by address chunk
     * (SQ_CHUNK_BYTES-aligned ranges), so a load probes only stores
     * that can possibly overlap it instead of walking the whole SQ.
     * Mirrors sq_ exactly: insert at dispatch, erase at commit/squash.
     * Buckets [0, sqBucketsUsed_) are live, sorted by chunk; the rest
     * are emptied spares that keep their vectors' capacity, so a new
     * chunk reuses storage instead of allocating.
     */
    std::vector<SqBucket> sqBuckets_;
    size_t sqBucketsUsed_ = 0;
    /** @} */

    /** @name Commit tracking @{ */
    std::vector<uint8_t> committed_;
    TraceIdx cursor_ = 0; //!< oldest uncommitted trace index
    uint64_t commitsThisCycle_ = 0;
    /** @} */

    /** Incremental pipeline-state indices + the policies' facade. */
    PipelineIndex index_;
    PipelineView view_;

    Cycle cycle_ = 0;
    CoreStats stats_;

    /** squashAfter's list of squashed instructions, kept for its
     *  capacity. */
    std::vector<InFlight *> squashed_;

    /** @name Event tracing (null/empty unless enabled) @{ */
    std::unique_ptr<EventLog> ownedLog_;
    EventLog *eventLog_ = nullptr;
    /** @} */
};

} // namespace noreba

#endif // NOREBA_UARCH_CORE_H
