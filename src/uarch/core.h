/**
 * @file
 * Trace-driven, cycle-level out-of-order core. The pipeline models
 * fetch (IFQ + predictor + L1I), decode (setup-instruction dropping and
 * CIT re-fetch filtering), rename/dispatch (ROB/IQ/LQ/SQ/PRF limits),
 * issue (FU pools, cache hierarchy + DCPT, store-to-load forwarding),
 * writeback (completion, branch resolution, misprediction squash) and a
 * commit stage run by one of seven commit policies (uarch/commit/).
 *
 * run() switches once on cfg.commitMode into runWith<P>, the simulate
 * loop instantiated for that policy's class; the stages that call the
 * policy take it as a template argument, so no policy call is virtual.
 *
 * Issue is a plain oldest-first pick: issueStage walks the IQ in
 * dispatch order and issues up to ISSUE_WIDTH entries whose sources
 * are ready, after starting the address-gen TLB check of every
 * address-ready store. A load finds its forwarding store by walking
 * the in-flight stores older than it. Issue schedules each writeback
 * on a timing wheel of per-cycle buckets (uarch/completion_wheel.h);
 * writeback drains the current cycle's bucket in dispatch order.
 * CoreConfig::shadowChecks re-derives every PipelineIndex answer from
 * the naive ROB scan each cycle and panics on divergence.
 *
 * Commit policies never touch the Core class: they consume a
 * PipelineView (uarch/pipeline_view.h), a narrow facade whose ordering
 * queries are answered by the incrementally maintained PipelineIndex.
 * The core drives the index from the pipeline events themselves —
 * dispatch, branch resolution, TLB-check start, commit, squash, pool
 * recycle — so no per-cycle ROB scan is ever needed.
 *
 * One optional CoreObserver (trace/observer.h), set by observe(),
 * sees every pipeline event and commit: an EventLog traces a run, the
 * tests' dependence oracle checks it.
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

#include <memory>
#include <vector>

#include "common/ring.h"
#include "trace/observer.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/completion_wheel.h"
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
     * Report this run's events and commits to @p observer (externally
     * owned; nullptr detaches). See trace/observer.h.
     */
    void observe(CoreObserver *observer) { observer_ = observer; }

  private:
    friend class PipelineView; // commit() forwarding only

    /**
     * The simulate loop for one commit policy type. run() picks the
     * instantiation once from cfg.commitMode, so the stages that call
     * the policy (commit, dispatch, and writeback through squashAfter)
     * bind its members statically.
     */
    template <typename P>
    CoreStats runWith(P policy);

    /** @name Pipeline stages (one call per cycle each) @{ */
    template <typename P>
    void writebackStage(P &policy);
    template <typename P>
    void commitStage(P &policy);
    void issueStage();
    template <typename P>
    void dispatchStage(P &policy);
    void decodeStage();
    void fetchStage();
    /** @} */

    /** Retire one instruction: resources freed, stats updated. */
    void commit(InFlight *p);

    /** Squash everything younger than `b` that has not committed. */
    template <typename P>
    void squashAfter(P &policy, InFlight *b);

    /** Release pool storage (bumps the generation). */
    void free(InFlight *p);
    InFlight *alloc();

    /** The instruction finished its address generation: start the
     *  page-table check (it completes at p->tlbDoneAt). */
    void startTlbCheck(InFlight *p);

    /** Give back the physical register and load-queue entry (at commit
     *  or squash). */
    void releaseResources(InFlight *p);
    void rebuildRenameTable();
    void advanceCursor();
    int loadLatency(InFlight *p, bool &blocked);
    bool fuAvailable(FuClass cls);
    void consumeFu(FuClass cls, int latency);

    /** Shadow check: IQ, LQ, SQ and PRF occupancy within CoreConfig
     *  (CoreConfig::shadowChecks; the policy checks its own). */
    void shadowCapacityVerify() const;

    const CoreConfig cfg_;
    const TraceView trace_;
    const std::vector<uint8_t> &misp_;

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
    /** Issue-queue residents in dispatch (seq) order; committed-early
     *  zombies stay until they issue. */
    std::vector<InFlight *> iq_;
    /** In-flight (uncommitted) stores in ascending trace order; loads
     *  walk it for store-to-load forwarding. */
    Ring<InFlight *> sq_;
    int lqUsed_ = 0;
    int physUsed_ = 0;
    InFlight::SrcRef renameTable_[NUM_ARCH_REGS];
    uint64_t nextSeq_ = 1;
    /** @} */

    /** @name Execution @{ */
    /** Issued instructions' writebacks, drained one cycle per cycle. */
    CompletionWheel completions_;
    /** Per-cycle FU accounting: counts used this cycle per class. */
    int fuUsed_[static_cast<int>(FuClass::NUM_CLASSES)] = {};
    /** Unpipelined dividers, one per class: busy until this cycle. */
    Cycle divBusyUntil_ = 0;
    Cycle fdivBusyUntil_ = 0;
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

    /** Attached observer; null unless a caller is watching. */
    CoreObserver *observer_ = nullptr;
};

} // namespace noreba

#endif // NOREBA_UARCH_CORE_H
