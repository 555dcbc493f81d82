/**
 * @file
 * Parallel simulation sweeps. Every figure/table bench replays hundreds
 * of (workload x config) simulations; they are mutually independent and
 * share nothing but the per-workload TraceBundle, which Core reads by
 * const reference. SweepRunner exploits that shape: it builds each
 * bundle exactly once in a shared, mutex-guarded cache, fans the jobs
 * out across a fixed-size thread pool (NOREBA_JOBS threads), and
 * returns the results in deterministic submission order — a parallel
 * sweep is bit-identical to the serial one, just faster.
 *
 * Failure handling (DESIGN.md §14): a job that throws SimError is
 * retried with backoff, then either fails the sweep (Propagate, the
 * historical behaviour, made deterministic by rethrowing in submission
 * order) or is recorded on its own SweepResult while the rest of the
 * sweep completes (Isolate, the `noreba-bench --keep-going` path).
 */

#ifndef NOREBA_SIM_SWEEP_H
#define NOREBA_SIM_SWEEP_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "sim/runner.h"

namespace noreba {

/** One simulation: a workload (trace options included) on one config. */
struct SweepJob
{
    std::string workload;
    CoreConfig cfg;
    TraceOptions trace;
};

/** How one job failed (meaningful only when SweepResult::ok is false). */
struct SweepFailure
{
    std::string site; //!< error site, e.g. "result_cache.sim"
    std::string what; //!< exception message of the last attempt
    int attempts = 0; //!< attempts consumed (1 = failed without retry)
};

/** The job echoed back with its simulation outcome. */
struct SweepResult
{
    SweepJob job;
    CoreStats stats;
    bool ok = true;       //!< stats are valid; failure is empty
    SweepFailure failure; //!< set when !ok (FailurePolicy::Isolate)
};

/** What SweepRunner::run does with a job that fails all its attempts. */
enum class FailurePolicy
{
    /**
     * Rethrow the first failed job's exception, in submission order
     * (deterministic regardless of which thread hit it first). The
     * historical behaviour: one bad job fails the sweep.
     */
    Propagate,
    /**
     * Record the failure on the job's SweepResult (ok = false) and
     * keep running every other job. Callers inspect `ok` per result;
     * noreba-bench --keep-going reports these as `failures` records.
     */
    Isolate,
};

/** Counters for the two-tier (memory over disk) bundle cache. */
struct BundleCacheStats
{
    uint64_t memHits = 0;      //!< bundle already resident in-process
    uint64_t sharedBuilds = 0; //!< joined another thread's in-flight build
    uint64_t diskHits = 0;     //!< bundle mmap'd from NOREBA_TRACE_DIR
    uint64_t builds = 0;       //!< cold: full prepareTrace() pipeline
    uint64_t bytesMapped = 0;  //!< total bytes of mmap'd bundle files
    uint64_t bytesWritten = 0; //!< bytes published to the disk store
    uint64_t evictions = 0;    //!< in-memory LRU evictions
};

/**
 * Shared two-tier trace-bundle cache: an in-memory LRU tier over the
 * on-disk bundle store (sim/trace_store.h). Bundles are keyed by
 * everything that shapes the trace (workload, generation params,
 * length, annotation, setup stripping); each is materialized exactly
 * once per process even when many threads request it concurrently —
 * first by mmap'ing a valid store file when NOREBA_TRACE_DIR is set,
 * else by building it and publishing to the store for the next
 * process.
 *
 * get() hands out shared ownership: the bundle stays alive while any
 * caller holds the pointer, even after the LRU tier (bounded by
 * NOREBA_BUNDLE_CACHE_CAP resident bundles; 0 = unbounded) evicts it.
 */
class BundleCache
{
  public:
    /**
     * Bundle materializer, injectable for tests (failure injection,
     * cheap synthetic bundles). When set, the disk store is bypassed
     * entirely — synthetic bundles must never be published. The default
     * (empty) builder is the real store-then-prepareTrace pipeline.
     */
    using Builder =
        std::function<TraceBundle(const std::string &, const TraceOptions &)>;

    explicit BundleCache(size_t capacity = capacityFromEnv(),
                         Builder builder = {},
                         int quarantineAfter = quarantineAfterFromEnv());

    /**
     * Fetch (building at most once per key, even across threads). A
     * build that throws evicts the never-materialized entry — later
     * calls retry instead of hitting a poisoned pin — and the
     * exception propagates to the caller(s) of the failed attempt.
     *
     * Keys whose builds failed `quarantineAfter` consecutive times are
     * quarantined: get() throws QuarantineError immediately without
     * consuming another build, so a workload that can never prepare
     * (bad generator, corrupt input) fails each remaining job fast
     * instead of re-running the whole pipeline per job. A successful
     * build clears the key's streak.
     */
    std::shared_ptr<const TraceBundle> get(const std::string &workload,
                                           const TraceOptions &opts = {});

    /** Number of bundles currently resident in the memory tier. */
    size_t size() const;

    /** Snapshot of the hit/miss/byte counters. */
    BundleCacheStats stats() const;

    /**
     * Memory-tier capacity from NOREBA_BUNDLE_CACHE_CAP: unset or
     * empty means unbounded (0); anything that is not a non-negative
     * integer is fatal().
     */
    static size_t capacityFromEnv();

    /**
     * Quarantine threshold from NOREBA_QUARANTINE_AFTER: consecutive
     * build failures per key before get() stops retrying (default 2);
     * 0 disables quarantine. Anything else non-numeric is fatal().
     */
    static int quarantineAfterFromEnv();

  private:
    /** traceKey(): the workload and every TraceOptions field. */
    using Key = std::string;

    struct Entry
    {
        Key key;
        std::once_flag once;
        /** Written only under mutex_; non-null once materialized. */
        std::shared_ptr<const TraceBundle> bundle;
        /** Recency stamp, doubling as the key into lru_ (0 = absent). */
        uint64_t lastUse = 0;
    };

    /** Refresh @p entry's recency stamp and its lru_ position. */
    void touchLocked(Entry *entry);
    /** Evict least-recent evictable entries down to capacity_. */
    void evictLocked(const Entry *keep);
    /** Drop a never-materialized entry after its build failed. */
    void removeFailedLocked(const std::shared_ptr<Entry> &entry);

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<Entry>> entries_;
    /** Recency index: lastUse -> entry; stamps are unique, so eviction
     *  pops from begin() in O(log n) instead of scanning entries_. */
    std::map<uint64_t, std::shared_ptr<Entry>> lru_;
    /** Consecutive build failures per key (cleared on success). */
    std::map<Key, int> failStreak_;
    uint64_t useClock_ = 0;
    size_t capacity_;
    Builder builder_;
    int quarantineAfter_;
    BundleCacheStats stats_;
};

/** The process-wide cache every sweep (and bench) shares. */
BundleCache &globalBundleCache();

/** Counters for the two-tier (memory over disk) simulation cache. */
struct SimCacheStats
{
    uint64_t memHits = 0;      //!< result already resident in-process
    uint64_t sharedSims = 0;   //!< joined another thread's in-flight sim
    uint64_t diskHits = 0;     //!< loaded from NOREBA_RESULT_DIR
    uint64_t simBuilds = 0;    //!< cold: full simulate() runs
    uint64_t stored = 0;       //!< result files published to the store
    uint64_t bytesWritten = 0; //!< bytes published to the disk store
};

/**
 * Shared simulation-result cache: an in-memory tier over the on-disk
 * result store (sim/result_store.h). Results are keyed by the full
 * content-addressed identity (workload, trace options, canonical
 * config); each distinct simulation runs exactly once per process even
 * when many threads — or many experiments in one driver run — request
 * it concurrently, and once per *machine* when NOREBA_RESULT_DIR is
 * set and the config is store-eligible.
 *
 * CoreStats are small (a few hundred bytes plus the optional
 * per-branch stall map), so the memory tier is unbounded: a full
 * `noreba-bench --run all` holds every distinct result comfortably.
 */
class ResultCache
{
  public:
    /** Produces the CoreStats for a job the cache cannot serve. */
    using Simulate = std::function<CoreStats()>;

    /**
     * Fetch the result for @p job, calling @p sim at most once per key
     * even across threads. Disk is consulted (and published) only when
     * NOREBA_RESULT_DIR is set and resultStoreEligible(job.cfg); the
     * in-memory dedup tier applies to every config. A @p sim that
     * throws evicts the never-completed entry — later calls retry —
     * and the exception propagates.
     */
    CoreStats get(const SweepJob &job, const Simulate &sim);

    /**
     * Count a simulation performed outside the cache (the event-trace
     * capture path simulates job 0 directly so its EventLog is live),
     * keeping simBuilds an honest total of simulate() calls.
     */
    void recordExternalSim();

    /** Number of results currently resident in the memory tier. */
    size_t size() const;

    /** Snapshot of the hit/miss/byte counters. */
    SimCacheStats stats() const;

  private:
    struct Entry
    {
        std::once_flag once;
        /** Written only under mutex_; valid once done. */
        CoreStats stats;
        bool done = false;
    };

    /** Drop a never-completed entry after its simulation failed. */
    void removeFailedLocked(const std::string &key,
                            const std::shared_ptr<Entry> &entry);

    mutable std::mutex mutex_;
    /** Keyed by resultKey() — the content-addressed identity. */
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    SimCacheStats stats_;
};

/** The process-wide result cache every sweep (and bench) shares. */
ResultCache &globalResultCache();

/** Execute sweeps over a fixed-size thread pool. */
class SweepRunner
{
  public:
    /**
     * @param numThreads  Worker count; 0 means "use jobsFromEnv()".
     * @param cache       Bundle cache to share; defaults to the global
     *                    one so independent sweeps reuse traces.
     * @param results     Result cache for simulation memoization. When
     *                    null, the global one is used — but only with
     *                    the global bundle cache: a test-injected
     *                    BundleCache can serve synthetic bundles whose
     *                    results must never leak across runners, so a
     *                    custom @p cache disables result caching unless
     *                    a ResultCache is injected explicitly.
     */
    explicit SweepRunner(unsigned numThreads = 0,
                         BundleCache *cache = &globalBundleCache(),
                         ResultCache *results = nullptr);

    /**
     * Run every job and return results in submission order. Job i's
     * result is always at index i regardless of which thread ran it or
     * when it finished.
     *
     * Each job gets 1 + NOREBA_SWEEP_RETRIES attempts (default: one
     * retry), with deterministic jittered backoff between attempts;
     * QuarantineError is never retried (it would throw again
     * immediately). A job that exhausts its attempts is handled per
     * @p policy: Propagate (the default) rethrows the first failed
     * job's exception in submission order; Isolate records the failure
     * on that job's SweepResult and finishes the rest of the sweep.
     */
    std::vector<SweepResult>
    run(const std::vector<SweepJob> &jobs,
        FailurePolicy policy = FailurePolicy::Propagate);

    /**
     * As run(jobs), additionally recording the first job's pipeline
     * events into @p firstJobEvents (when non-null). The capture
     * simulates job 0 directly — a live EventLog cannot be served from
     * the result cache — so callers exporting a Chrome trace get it
     * from the same simulation that produced the first result instead
     * of paying for a second one.
     */
    std::vector<SweepResult>
    run(const std::vector<SweepJob> &jobs, EventLog *firstJobEvents,
        FailurePolicy policy = FailurePolicy::Propagate);

    unsigned numThreads() const { return numThreads_; }

    /**
     * Worker count from NOREBA_JOBS: unset or empty means one thread
     * per hardware core; anything that is not a positive integer is
     * fatal().
     */
    static unsigned jobsFromEnv();

    /**
     * Retry budget from NOREBA_SWEEP_RETRIES: extra attempts per job
     * after the first (default 1); 0 disables retry. Anything else
     * non-numeric is fatal().
     */
    static int retriesFromEnv();

  private:
    unsigned numThreads_;
    BundleCache *cache_;
    ResultCache *results_;
};

/** @name JSON records (BENCH_*.json emission) @{ */
JsonValue configToJson(const CoreConfig &cfg);
JsonValue statsToJson(const CoreStats &stats);
JsonValue bundleCacheStatsToJson(const BundleCacheStats &stats);
JsonValue simCacheStatsToJson(const SimCacheStats &stats);
JsonValue sweepResultToJson(const SweepResult &result);
/** Array of sweepResultToJson records, in sweep order. */
JsonValue sweepToJson(const std::vector<SweepResult> &results);
/** @} */

} // namespace noreba

#endif // NOREBA_SIM_SWEEP_H
