/**
 * @file
 * Parallel simulation sweeps. Every figure/table bench replays hundreds
 * of (workload x config) simulations; they are mutually independent and
 * share nothing but the per-workload TraceBundle, which Core reads by
 * const reference. SweepRunner exploits that shape: it builds each
 * bundle exactly once in a shared cache, runs up to NOREBA_JOBS worker
 * threads that claim job indices from one atomic counter, and returns
 * the results in deterministic submission order — a parallel sweep is
 * bit-identical to the serial one, just faster.
 *
 * Both in-process caches (BundleCache, ResultCache) sit on one
 * OnceMemo: every job is a pure function of its key, so each key is
 * produced once and its outcome — value or exception — is kept. A
 * warm replay is nearly all cache hits, so a hit is kept cheap: one
 * hash per key, a sharded lock, no promise.
 *
 * Failure handling (DESIGN.md §13): a job that throws either fails the
 * sweep (Propagate, rethrown in submission order so the outcome is
 * deterministic) or is recorded on its own SweepResult while the rest
 * of the sweep completes (Isolate, the `noreba-bench --keep-going`
 * path). Failed jobs are not retried: nothing on the job path fails
 * transiently, so a retry would fail the same way again.
 * Jobs run unobserved; NOREBA_EVENT_TRACE re-simulates one in the
 * driver (exp/driver.cc) with an EventLog attached.
 */

#ifndef NOREBA_SIM_SWEEP_H
#define NOREBA_SIM_SWEEP_H

#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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
    std::string site; //!< error site, e.g. "config.validate"
    std::string what; //!< exception message
};

/** The job echoed back with its simulation outcome. */
struct SweepResult
{
    SweepJob job;
    CoreStats stats;
    bool ok = true;       //!< stats are valid; failure is empty
    SweepFailure failure; //!< set when !ok (FailurePolicy::Isolate)
};

/** What SweepRunner::run does with a job that throws. */
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

/**
 * A thread-safe once-per-key memo. The first caller of a key runs the
 * producer; callers that arrive while it runs wait for it; the outcome
 * is kept and served to every later caller — a value, or the exception
 * the producer threw, rethrown. Entries are never dropped, so a key
 * whose producer failed fails fast from then on.
 *
 * A cache hit costs one hashed lookup under one shard's mutex: the key
 * is hashed once, before any lock, and its hash picks the shard, so
 * sweep workers hitting different keys rarely wait on each other.
 * Entries live in map nodes that never move, so the outcome is read
 * after the lock is released: the producer writes it into the entry
 * and then sets the entry's `done` flag, on which joiners wait.
 */
template <typename V>
class OnceMemo
{
  public:
    /** How the get() calls that did not produce were served. */
    struct Counts
    {
        uint64_t resident = 0; //!< the outcome was already kept
        uint64_t joined = 0;   //!< waited for another caller's producer
    };

    /**
     * The outcome for @p key, running @p produce (a callable returning
     * V) only if no caller has yet. The caller is counted *before* it
     * produces or waits, so counts().joined is up to date while the
     * producer still runs.
     */
    template <typename Produce>
    V get(const std::string &key, Produce &&produce)
    {
        const Lookup lookup{key, std::hash<std::string_view>{}(key)};
        Shard &shard =
            shards_[lookup.hash >> (8 * sizeof(size_t) - SHARD_BITS)];
        Entry *entry;
        bool producer = false;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto it = shard.entries.find(lookup);
            if (it == shard.entries.end()) {
                it = shard.entries.try_emplace(Key{key, lookup.hash}).first;
                producer = true;
            } else if (it->second.done.load(std::memory_order_relaxed)) {
                ++shard.counts.resident;
            } else {
                ++shard.counts.joined;
            }
            entry = &it->second;
        }
        // Produce outside the lock so unrelated keys run in parallel.
        if (producer) {
            try {
                entry->value.emplace(produce());
            } catch (...) {
                entry->error = std::current_exception();
            }
            entry->done.store(true, std::memory_order_release);
            entry->done.notify_all();
        } else if (!entry->done.load(std::memory_order_acquire)) {
            // Only a joiner waits: wait() registers with a waiter
            // table shared across the process even when it returns
            // at once.
            entry->done.wait(false, std::memory_order_acquire);
        }
        if (entry->error)
            std::rethrow_exception(entry->error);
        return *entry->value;
    }

    /** Number of keys seen (resident, in flight or failed). */
    size_t size() const
    {
        size_t n = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            n += shard.entries.size();
        }
        return n;
    }

    /** Snapshot of how non-producing callers were served. */
    Counts counts() const
    {
        Counts sum;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            sum.resident += shard.counts.resident;
            sum.joined += shard.counts.joined;
        }
        return sum;
    }

  private:
    /** A stored key with its hash. */
    struct Key
    {
        std::string text;
        size_t hash;
    };
    /** A probe: the caller's key and its hash, computed before locking. */
    struct Lookup
    {
        std::string_view text;
        size_t hash;
    };
    struct KeyHash
    {
        using is_transparent = void;
        size_t operator()(const Key &k) const { return k.hash; }
        size_t operator()(const Lookup &k) const { return k.hash; }
    };
    struct KeyEqual
    {
        using is_transparent = void;
        template <typename A, typename B>
        bool operator()(const A &a, const B &b) const
        {
            return a.hash == b.hash &&
                   std::string_view(a.text) == std::string_view(b.text);
        }
    };
    /** Written once by the producer, read only once `done` is set. */
    struct Entry
    {
        std::optional<V> value;
        std::exception_ptr error;
        /** The producer has finished: released after the outcome is
         *  written, and waited on by joiners. */
        std::atomic<bool> done{false};
    };
    /** One lock's worth of entries, on its own cache line. */
    struct alignas(64) Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Key, Entry, KeyHash, KeyEqual> entries;
        Counts counts;
    };

    /** The hash's top SHARD_BITS bits pick the shard. */
    static constexpr unsigned SHARD_BITS = 4;
    std::array<Shard, size_t{1} << SHARD_BITS> shards_;
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
};

/**
 * Shared two-tier trace-bundle cache: an in-process OnceMemo over the
 * on-disk bundle store (sim/trace_store.h). Bundles are keyed by
 * everything that shapes the trace (workload, generation params,
 * length, annotation, setup stripping); each is materialized exactly
 * once per process even when many threads request it concurrently —
 * first by mmap'ing a valid store file when NOREBA_TRACE_DIR is set,
 * else by building it and publishing to the store for the next
 * process. Every bundle stays resident for the life of the cache.
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

    explicit BundleCache(Builder builder = {});

    /**
     * Fetch, materializing at most once per key even across threads. A
     * build that throws is kept: this and every later get() of the key
     * rethrows it, so a workload that cannot prepare fails each of its
     * jobs fast instead of rebuilding per job.
     */
    std::shared_ptr<const TraceBundle> get(const std::string &workload,
                                           const TraceOptions &opts = {});

    /** Number of keys the cache has seen. */
    size_t size() const { return memo_.size(); }

    /** Snapshot of the hit/miss/byte counters. */
    BundleCacheStats stats() const;

  private:
    /** Map @p key from the store, else build (and publish) it. */
    std::shared_ptr<const TraceBundle>
    materialize(const std::string &workload, const TraceOptions &opts,
                const std::string &key);

    Builder builder_;
    OnceMemo<std::shared_ptr<const TraceBundle>> memo_;
    /** Guards stats_; memHits and sharedBuilds come from memo_. */
    mutable std::mutex mutex_;
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
    uint64_t simBuilds = 0;    //!< cold: simulations this cache ran
    uint64_t stored = 0;       //!< result files published to the store
    uint64_t bytesWritten = 0; //!< bytes published to the disk store
};

/**
 * Shared simulation-result cache: an in-process OnceMemo over the
 * on-disk result store (sim/result_store.h). Results are keyed by the
 * full content-addressed identity (workload, trace options, canonical
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
     * in-memory tier applies to every config. A @p sim that throws is
     * kept like a result: every get() of the key rethrows it.
     */
    CoreStats get(const SweepJob &job, const Simulate &sim);

    /** Number of keys the cache has seen. */
    size_t size() const { return memo_.size(); }

    /** Snapshot of the hit/miss/byte counters. */
    SimCacheStats stats() const;

  private:
    /** Keyed by resultKey() — the content-addressed identity. */
    OnceMemo<CoreStats> memo_;
    /**
     * The counters get() bumps on every disk hit, so atomics rather
     * than a lock every sweep worker would queue on; memHits and
     * sharedSims come from memo_.
     */
    std::atomic<uint64_t> diskHits_{0}, simBuilds_{0}, stored_{0},
        bytesWritten_{0};
};

/** The process-wide result cache every sweep (and bench) shares. */
ResultCache &globalResultCache();

/**
 * Most worker threads a sweep may ask for (NOREBA_JOBS, --jobs). A
 * larger value is a typo, not a machine: each worker is an OS thread.
 */
constexpr unsigned MAX_SWEEP_JOBS = 1024;

/** Execute sweeps on up to numThreads() worker threads. */
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
     * Run every job and return results in submission order. One
     * thread or one job runs inline; otherwise a ThreadPool of
     * min(numThreads(), jobs) threads runs one worker each, every
     * worker claims the next unclaimed job index until none is left,
     * and the calling thread only waits for them. Job i's result is
     * always at index i regardless of which thread ran it or when it
     * finished.
     *
     * A job that throws — a std::exception or anything else — is
     * handled per @p policy: Propagate (the default) rethrows the
     * first failed job's exception in submission order; Isolate
     * records the failure on that job's SweepResult (site "sweep.job"
     * unless a SimError names one) and finishes the rest of the sweep.
     */
    std::vector<SweepResult>
    run(const std::vector<SweepJob> &jobs,
        FailurePolicy policy = FailurePolicy::Propagate);

    unsigned numThreads() const { return numThreads_; }

    /**
     * Worker count from NOREBA_JOBS: unset or empty means one thread
     * per hardware core; anything that is not an integer in
     * [1, MAX_SWEEP_JOBS] is fatal().
     */
    static unsigned jobsFromEnv();

  private:
    unsigned numThreads_;
    BundleCache *cache_;
    ResultCache *results_;
};

/** The counters accrued between two stats() snapshots of one cache. */
BundleCacheStats operator-(const BundleCacheStats &now,
                           const BundleCacheStats &before);
SimCacheStats operator-(const SimCacheStats &now,
                        const SimCacheStats &before);

/** @name JSON records (BENCH_*.json emission) @{ */
/** One key per NOREBA_CORE_CONFIG_FIELDS entry, under its dotted name. */
JsonValue configToJson(const CoreConfig &cfg);
JsonValue statsToJson(const CoreStats &stats);
/**
 * The cache records' "memHits" counts joined getters too
 * (sharedBuilds / sharedSims): whether a getter joins an in-flight
 * producer or finds its kept outcome depends on thread timing, and
 * the sum does not, so the record is the same at any NOREBA_JOBS.
 */
JsonValue bundleCacheStatsToJson(const BundleCacheStats &stats);
JsonValue simCacheStatsToJson(const SimCacheStats &stats);
JsonValue sweepResultToJson(const SweepResult &result);
/** Array of sweepResultToJson records, in sweep order. */
JsonValue sweepToJson(const std::vector<SweepResult> &results);
/** @} */

} // namespace noreba

#endif // NOREBA_SIM_SWEEP_H
