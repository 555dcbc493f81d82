#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/error.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "sim/result_store.h"
#include "sim/trace_store.h"

namespace noreba {

BundleCache::BundleCache(Builder builder) : builder_(std::move(builder)) {}

std::shared_ptr<const TraceBundle>
BundleCache::get(const std::string &workload, const TraceOptions &opts)
{
    const std::string key = traceKey(workload, opts);
    return memo_.get(key,
                     [&] { return materialize(workload, opts, key); });
}

std::shared_ptr<const TraceBundle>
BundleCache::materialize(const std::string &workload,
                         const TraceOptions &opts, const std::string &key)
{
    // Injected builders produce synthetic bundles: never read or
    // publish the on-disk store for them.
    const std::string path =
        builder_ ? std::string() : traceStore().path(workload, key);
    if (!path.empty()) {
        // A file published under another key (a hash collision, a
        // copied file) is a miss, not a wrong trace.
        auto mapped = MappedTraceBundle::open(path);
        if (mapped && mapped->key() == key) {
            auto bundle = std::make_shared<TraceBundle>();
            bundle->workload = workload;
            bundle->opts = opts;
            bundle->pass = mapped->pass();
            bundle->checksum = mapped->archChecksum();
            const uint64_t bytes = mapped->fileBytes();
            bundle->mapped = std::move(mapped);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.diskHits;
            stats_.bytesMapped += bytes;
            return bundle;
        }
    }
    auto bundle = std::make_shared<const TraceBundle>(
        builder_ ? builder_(workload, opts) : prepareTrace(workload, opts));
    const size_t published =
        path.empty() ? 0 : saveTraceBundle(path, *bundle);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.builds;
    stats_.bytesWritten += published;
    return bundle;
}

BundleCacheStats
BundleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    BundleCacheStats out = stats_;
    const auto counts = memo_.counts();
    out.memHits = counts.resident;
    out.sharedBuilds = counts.joined;
    return out;
}

BundleCache &
globalBundleCache()
{
    static BundleCache cache;
    return cache;
}

CoreStats
ResultCache::get(const SweepJob &job, const Simulate &sim)
{
    const std::string key = resultKey(job.workload, job.cfg, job.trace);
    auto produce = [&] {
        const std::string path =
            resultStoreEligible(job.cfg)
                ? resultStore().path(job.workload, key)
                : std::string();
        CoreStats stats;
        if (!path.empty() && loadResult(path, key, stats)) {
            diskHits_.fetch_add(1, std::memory_order_relaxed);
            return stats;
        }
        stats = sim();
        const size_t published =
            path.empty() ? 0 : saveResult(path, key, stats);
        simBuilds_.fetch_add(1, std::memory_order_relaxed);
        if (published) {
            stored_.fetch_add(1, std::memory_order_relaxed);
            bytesWritten_.fetch_add(published, std::memory_order_relaxed);
        }
        return stats;
    };
    return memo_.get(key, produce);
}

SimCacheStats
ResultCache::stats() const
{
    SimCacheStats out;
    const auto counts = memo_.counts();
    out.memHits = counts.resident;
    out.sharedSims = counts.joined;
    out.diskHits = diskHits_.load(std::memory_order_relaxed);
    out.simBuilds = simBuilds_.load(std::memory_order_relaxed);
    out.stored = stored_.load(std::memory_order_relaxed);
    out.bytesWritten = bytesWritten_.load(std::memory_order_relaxed);
    return out;
}

ResultCache &
globalResultCache()
{
    static ResultCache cache;
    return cache;
}

SweepRunner::SweepRunner(unsigned numThreads, BundleCache *cache,
                         ResultCache *results)
    : numThreads_(numThreads ? numThreads : jobsFromEnv()), cache_(cache),
      results_(results ? results
               : cache == &globalBundleCache() ? &globalResultCache()
                                               : nullptr)
{
}

unsigned
SweepRunner::jobsFromEnv()
{
    const char *env = std::getenv("NOREBA_JOBS");
    if (!env || !*env) {
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    fatal_if(errno != 0 || end == env || *end != '\0' || parsed < 1 ||
                 parsed > MAX_SWEEP_JOBS,
             "NOREBA_JOBS=\"%s\" is not a positive integer up to %u", env,
             MAX_SWEEP_JOBS);
    return static_cast<unsigned>(parsed);
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs, FailurePolicy policy)
{
    std::vector<SweepResult> results(jobs.size());
    // Saved per job for FailurePolicy::Propagate: rethrowing the
    // original exception (not a copy reconstructed from what()) in
    // submission order keeps the propagated failure deterministic no
    // matter which worker thread lost the race.
    std::vector<std::exception_ptr> errors(jobs.size());

    auto simulateJob = [&](size_t i) {
        const SweepJob &job = jobs[i];
        if (results_) {
            // The bundle is fetched lazily inside the callback: a
            // disk-served result never materializes its trace at all.
            results[i].stats = results_->get(job, [&] {
                std::shared_ptr<const TraceBundle> bundle =
                    cache_->get(job.workload, job.trace);
                return simulate(job.cfg, *bundle);
            });
            return;
        }
        std::shared_ptr<const TraceBundle> bundle =
            cache_->get(job.workload, job.trace);
        results[i].stats = simulate(job.cfg, *bundle);
    };

    // Never throws: whatever a job throws, std or not, is its outcome.
    auto runJob = [&](size_t i) {
        try {
            results[i].job = jobs[i];
            simulateJob(i);
        } catch (const std::exception &e) {
            results[i].ok = false;
            results[i].failure = {errorSite(e, "sweep.job"), e.what()};
            errors[i] = std::current_exception();
        } catch (...) {
            results[i].ok = false;
            results[i].failure = {"sweep.job", "non-standard exception"};
            errors[i] = std::current_exception();
        }
    };

    if (numThreads_ <= 1 || jobs.size() <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            runJob(i);
    } else {
        // min(threads, jobs) workers, each claiming the next unclaimed
        // index until none is left; results land at their own index,
        // so the claim order never reaches them. The pool only hosts
        // the workers: its queue holds one task per worker, not one
        // per job.
        std::atomic<size_t> next{0};
        auto work = [&] {
            for (;;) {
                const size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                runJob(i);
            }
        };
        const auto workers =
            static_cast<unsigned>(std::min<size_t>(numThreads_, jobs.size()));
        ThreadPool pool(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.submit(work);
        pool.wait();
    }

    if (policy == FailurePolicy::Propagate) {
        for (size_t i = 0; i < results.size(); ++i)
            if (!results[i].ok)
                std::rethrow_exception(errors[i]);
    }
    return results;
}

JsonValue
configToJson(const CoreConfig &cfg)
{
    // The field refs mutate nothing here; the copy keeps the API const.
    CoreConfig copy = cfg;
    JsonValue out = JsonValue::object();
    for (const ConfigFieldRef &f : configFieldRefs(copy)) {
        switch (f.kind) {
          case ConfigFieldRef::Kind::Str: out.set(f.name, *f.str); break;
          case ConfigFieldRef::Kind::Int: out.set(f.name, *f.i); break;
          case ConfigFieldRef::Kind::Bool: out.set(f.name, *f.b); break;
          case ConfigFieldRef::Kind::Mode:
            out.set(f.name, commitModeName(*f.mode));
            break;
        }
    }
    return out;
}

JsonValue
statsToJson(const CoreStats &s)
{
    JsonValue out = JsonValue::object();
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (f.counter)
            out.set(f.name, s.*f.counter);
        else
            out.set(f.name, f.derived(s));
    }
    return out;
}

BundleCacheStats
operator-(const BundleCacheStats &now, const BundleCacheStats &before)
{
    BundleCacheStats d;
    d.memHits = now.memHits - before.memHits;
    d.sharedBuilds = now.sharedBuilds - before.sharedBuilds;
    d.diskHits = now.diskHits - before.diskHits;
    d.builds = now.builds - before.builds;
    d.bytesMapped = now.bytesMapped - before.bytesMapped;
    d.bytesWritten = now.bytesWritten - before.bytesWritten;
    return d;
}

SimCacheStats
operator-(const SimCacheStats &now, const SimCacheStats &before)
{
    SimCacheStats d;
    d.memHits = now.memHits - before.memHits;
    d.sharedSims = now.sharedSims - before.sharedSims;
    d.diskHits = now.diskHits - before.diskHits;
    d.simBuilds = now.simBuilds - before.simBuilds;
    d.stored = now.stored - before.stored;
    d.bytesWritten = now.bytesWritten - before.bytesWritten;
    return d;
}

JsonValue
bundleCacheStatsToJson(const BundleCacheStats &s)
{
    JsonValue out = JsonValue::object();
    out.set("memHits", s.memHits + s.sharedBuilds)
        .set("diskHits", s.diskHits)
        .set("builds", s.builds)
        .set("bytesMapped", s.bytesMapped)
        .set("bytesWritten", s.bytesWritten);
    return out;
}

JsonValue
simCacheStatsToJson(const SimCacheStats &s)
{
    JsonValue out = JsonValue::object();
    out.set("memHits", s.memHits + s.sharedSims)
        .set("diskHits", s.diskHits)
        .set("simBuilds", s.simBuilds)
        .set("stored", s.stored)
        .set("bytesWritten", s.bytesWritten);
    return out;
}

JsonValue
sweepResultToJson(const SweepResult &r)
{
    JsonValue out = JsonValue::object();
    out.set("workload", r.job.workload)
        .set("traceLen", r.job.trace.maxDynInsts)
        .set("annotate", r.job.trace.annotate)
        .set("stripSetups", r.job.trace.stripSetups)
        .set("config", configToJson(r.job.cfg));
    if (r.ok) {
        out.set("stats", statsToJson(r.stats));
    } else {
        // No "stats" key: the zeroed CoreStats would serialize derived
        // ratios of 0/0. The extra keys appear only on failed records,
        // so a clean run's JSON stays byte-identical.
        JsonValue failure = JsonValue::object();
        failure.set("site", r.failure.site).set("what", r.failure.what);
        out.set("failed", true).set("failure", std::move(failure));
    }
    return out;
}

JsonValue
sweepToJson(const std::vector<SweepResult> &results)
{
    JsonValue arr = JsonValue::array();
    for (const auto &r : results)
        arr.push(sweepResultToJson(r));
    return arr;
}

} // namespace noreba
