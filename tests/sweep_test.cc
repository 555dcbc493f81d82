/**
 * @file
 * Tests for the parallel sweep engine: the thread pool, the shared
 * bundle cache, serial/parallel bit-identity across every commit mode,
 * the JSON emitter, the numBrCqs > 16 regression, the
 * stripSetupRecords guard-index remap, SweepRunner's dispatch (empty,
 * single-job and over-wide sweeps, order, in-sweep deduplication,
 * non-std exceptions) and OnceMemo under contention.
 */

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "sim/sweep.h"
#include "test_util.h"

using namespace noreba;

namespace {

// Short traces keep the full-mode cross product fast.
constexpr uint64_t TEST_TRACE_LEN = 20000;

TraceOptions
shortTrace()
{
    TraceOptions opts;
    opts.maxDynInsts = TEST_TRACE_LEN;
    return opts;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    for (int i = 0; i < 10; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&ran, i] {
            ++ran;
            if (i % 2 == 0)
                throw std::runtime_error("injected task failure");
        });
    }
    // wait() drains the queue first, then rethrows the first error —
    // a throwing task never terminates the process or wedges the pool.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 16);

    // The error slot was consumed: the pool keeps working and a clean
    // batch waits without throwing.
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 17);
}

TEST(BundleCache, FailedBuildEvictsEntryAndPropagates)
{
    std::atomic<int> calls{0};
    BundleCache cache([&](const std::string &w, const TraceOptions &) {
        if (calls++ == 0)
            throw std::runtime_error("injected build failure");
        TraceBundle b;
        b.workload = w;
        return b;
    });
    EXPECT_THROW(cache.get("synthetic", {}), std::runtime_error);
    EXPECT_EQ(cache.stats().builds, 0u);

    // The failure is kept: a second get() rethrows it without
    // building again.
    try {
        cache.get("synthetic", {});
        FAIL() << "expected the stored build failure";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "injected build failure");
    }
    EXPECT_EQ(calls.load(), 1);

    // Other keys are unaffected by a failed neighbour.
    auto bundle = cache.get("other", {});
    ASSERT_NE(bundle, nullptr);
    EXPECT_EQ(bundle->workload, "other");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(calls.load(), 2);
}

TEST(BundleCache, ConcurrentWaitersCountAsSharedBuildsNotHits)
{
    std::atomic<bool> release{false};
    BundleCache cache([&](const std::string &w, const TraceOptions &) {
        while (!release.load())
            std::this_thread::yield();
        TraceBundle b;
        b.workload = w;
        return b;
    });

    constexpr uint64_t N = 6;
    std::vector<std::thread> threads;
    for (uint64_t i = 0; i < N; ++i)
        threads.emplace_back([&] { cache.get("shared", {}); });
    // Hold the build until every other getter has joined it, so the
    // counter split is deterministic: one build, N-1 shared waiters.
    while (cache.stats().sharedBuilds != N - 1)
        std::this_thread::yield();
    release = true;
    for (auto &t : threads)
        t.join();

    BundleCacheStats s = cache.stats();
    EXPECT_EQ(s.builds, 1u);
    EXPECT_EQ(s.sharedBuilds, N - 1);
    EXPECT_EQ(s.memHits, 0u);

    // Only a get() against the resident bundle is a memory hit.
    cache.get("shared", {});
    EXPECT_EQ(cache.stats().memHits, 1u);
    EXPECT_EQ(cache.stats().sharedBuilds, N - 1);
}

TEST(SweepRunner, CacheRecordsCountJoinedGettersAsMemHits)
{
    // Joined-vs-kept is a thread-timing split; the JSON records carry
    // only its sum, so BENCH_*.json is the same at every thread count.
    BundleCacheStats early, late;
    early.memHits = 3;
    early.sharedBuilds = 4;
    late.memHits = 7;
    const std::string bundles = bundleCacheStatsToJson(early).dump();
    EXPECT_EQ(bundles, bundleCacheStatsToJson(late).dump());
    EXPECT_NE(bundles.find("\"memHits\":7,"), std::string::npos) << bundles;
    EXPECT_EQ(bundles.find("shared"), std::string::npos) << bundles;

    SimCacheStats joined, kept;
    joined.memHits = 1;
    joined.sharedSims = 5;
    kept.memHits = 6;
    const std::string sims = simCacheStatsToJson(joined).dump();
    EXPECT_EQ(sims, simCacheStatsToJson(kept).dump());
    EXPECT_NE(sims.find("\"memHits\":6,"), std::string::npos) << sims;
    EXPECT_EQ(sims.find("shared"), std::string::npos) << sims;
}

TEST(Json, ScalarsAndEscaping)
{
    EXPECT_EQ(JsonValue(uint64_t{42}).dump(), "42");
    EXPECT_EQ(JsonValue(-7).dump(), "-7");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
    EXPECT_EQ(JsonValue("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(JsonValue(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrderAndOverwrite)
{
    JsonValue obj = JsonValue::object();
    obj.set("b", 1).set("a", 2).set("b", 3);
    EXPECT_EQ(obj.dump(), "{\"b\":3,\"a\":2}");

    JsonValue arr = JsonValue::array();
    arr.push("x").push(JsonValue::object());
    EXPECT_EQ(arr.dump(), "[\"x\",{}]");
    EXPECT_EQ(arr.size(), 2u);
}

TEST(Json, PrettyPrintIndents)
{
    JsonValue obj = JsonValue::object();
    obj.set("k", JsonValue::array());
    EXPECT_EQ(obj.dump(2), "{\n  \"k\": []\n}");
}

TEST(BundleCache, SameKeyReturnsSameBundleOnce)
{
    BundleCache cache;
    auto a = cache.get("CRC32", shortTrace());
    auto b = cache.get("CRC32", shortTrace());
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.size(), 1u);

    TraceOptions stripped = shortTrace();
    stripped.stripSetups = true;
    auto c = cache.get("CRC32", stripped);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 2u);

    BundleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.memHits, 1u);
}

TEST(BundleCache, ConcurrentGetBuildsOnce)
{
    BundleCache cache;
    std::atomic<const TraceBundle *> seen{nullptr};
    std::atomic<bool> mismatch{false};
    ThreadPool pool(8);
    for (int i = 0; i < 32; ++i) {
        pool.submit([&] {
            auto b = cache.get("CRC32", shortTrace());
            const TraceBundle *expected = nullptr;
            if (!seen.compare_exchange_strong(expected, b.get()) &&
                expected != b.get())
                mismatch = true;
        });
    }
    pool.wait();
    EXPECT_FALSE(mismatch.load());
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SweepRunner, ParallelMatchesSerialForEveryCommitMode)
{
    const CommitMode modes[] = {
        CommitMode::InOrder,       CommitMode::NonSpecOoO,
        CommitMode::Noreba,        CommitMode::IdealReconv,
        CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
        CommitMode::ValidationBuffer,
    };
    std::vector<SweepJob> jobs;
    for (const char *workload : {"CRC32", "mcf"}) {
        for (CommitMode mode : modes) {
            CoreConfig cfg = skylakeConfig();
            cfg.commitMode = mode;
            jobs.push_back(SweepJob{workload, cfg, shortTrace()});
        }
    }

    // Separate caches so the parallel run also re-builds its bundles
    // under contention rather than inheriting the serial run's.
    BundleCache serialCache, parallelCache;
    auto serial = SweepRunner(1, &serialCache).run(jobs);
    auto parallel = SweepRunner(8, &parallelCache).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(testutil::statsEqual(serial[i].stats,
                                         parallel[i].stats))
            << "job " << i << " (" << jobs[i].workload << ", "
            << commitModeName(jobs[i].cfg.commitMode) << ")";
        EXPECT_EQ(serial[i].job.workload, jobs[i].workload);
    }
}

TEST(SweepRunner, ResultsFollowSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    for (int width : {1, 2, 4, 8}) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = CommitMode::InOrder;
        cfg.commitWidth = width;
        jobs.push_back(SweepJob{"CRC32", cfg, shortTrace()});
    }
    BundleCache cache;
    auto results = SweepRunner(4, &cache).run(jobs);
    ASSERT_EQ(results.size(), 4u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].job.cfg.commitWidth,
                  jobs[i].cfg.commitWidth);
    // Narrower commit cannot be faster than wider on the same trace.
    EXPECT_GE(results[0].stats.cycles, results[3].stats.cycles);
}

TEST(SweepRunner, JsonRecordCarriesConfigAndStats)
{
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    BundleCache cache;
    auto results =
        SweepRunner(1, &cache).run({SweepJob{"CRC32", cfg, shortTrace()}});
    ASSERT_EQ(results.size(), 1u);

    JsonValue doc = sweepToJson(results);
    std::string text = doc.dump();
    EXPECT_NE(text.find("\"workload\":\"CRC32\""), std::string::npos);
    EXPECT_NE(text.find("\"commitMode\":\"Noreba\""), std::string::npos);
    EXPECT_NE(text.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(text.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(text.find("\"steerStallCycles\":"), std::string::npos);
}

TEST(SweepRunner, JobsFromEnvRejectsGarbage)
{
    ASSERT_EQ(setenv("NOREBA_JOBS", "banana", 1), 0);
    EXPECT_EXIT(SweepRunner::jobsFromEnv(),
                ::testing::ExitedWithCode(1), "not a positive integer");
    ASSERT_EQ(setenv("NOREBA_JOBS", "-3", 1), 0);
    EXPECT_EXIT(SweepRunner::jobsFromEnv(),
                ::testing::ExitedWithCode(1), "not a positive integer");
    // Values past MAX_SWEEP_JOBS, including ones that used to wrap
    // through unsigned to 1 and 0 threads. Parsing starts no thread.
    for (const char *huge : {"100000", "4294967296", "4294967297"}) {
        ASSERT_EQ(setenv("NOREBA_JOBS", huge, 1), 0);
        EXPECT_EXIT(SweepRunner::jobsFromEnv(),
                    ::testing::ExitedWithCode(1), "not a positive integer")
            << huge;
    }
    ASSERT_EQ(setenv("NOREBA_JOBS", "1024", 1), 0);
    EXPECT_EQ(SweepRunner::jobsFromEnv(), MAX_SWEEP_JOBS);
    ASSERT_EQ(setenv("NOREBA_JOBS", "3", 1), 0);
    EXPECT_EQ(SweepRunner::jobsFromEnv(), 3u);
    ASSERT_EQ(unsetenv("NOREBA_JOBS"), 0);
}

// Regression: commitFromQueues used a fixed blocked[1 + 16] scratch
// array and panicked on more than 16 BR-CQs, capping CQ-count sweeps.
TEST(NorebaCommit, MoreThanSixteenBrCqsSimulate)
{
    Program prog = testutil::delinquentLoop(800);
    testutil::Prepared p = testutil::prepare(prog);

    CoreConfig base = skylakeConfig();
    base.srob.numBrCqs = 2;
    CoreStats narrow = testutil::run(p, CommitMode::Noreba, base);

    CoreConfig wideCfg = skylakeConfig();
    wideCfg.srob.numBrCqs = 32;
    CoreStats wide = testutil::run(p, CommitMode::Noreba, wideCfg);

    EXPECT_EQ(wide.committedInsts, narrow.committedInsts);
    EXPECT_GT(wide.cycles, 0u);
}

// Failure-isolation layer: a failed build is kept and observed by
// every joiner, and the runner isolates or propagates per the
// FailurePolicy.

TEST(BundleCache, EveryJoinerOfAFailingBuildObservesTheFailure)
{
    std::atomic<int> entered{0};
    std::atomic<int> builds{0};
    constexpr int N = 6;
    BundleCache cache(
        [&](const std::string &, const TraceOptions &) -> TraceBundle {
            ++builds;
            // Hold the build until every thread is in flight, so all N
            // callers genuinely join one failing entry.
            while (entered.load() < N)
                std::this_thread::yield();
            throw std::runtime_error("injected build failure");
        });

    std::atomic<int> sawFailure{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < N; ++i) {
        threads.emplace_back([&] {
            ++entered;
            try {
                cache.get("shared", {});
            } catch (const std::runtime_error &) {
                ++sawFailure;
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Nobody silently gets a null bundle, and the one failed build is
    // shared rather than re-run per joiner.
    EXPECT_EQ(sawFailure.load(), N);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.stats().builds, 0u);
}

TEST(SweepRunner, IsolatePolicyRecordsFailureAndRunsRemainingJobs)
{
    // Two failure paths: an illegal config fails its own job at
    // validation, and a failed trace build fails every job of its
    // workload. The builder fails "sha" and builds the rest for real.
    std::map<std::string, int> builds;
    BundleCache cache(
        [&](const std::string &workload, const TraceOptions &opts) {
            ++builds[workload];
            if (workload == "sha")
                throw SimError("bundle_cache.build", "no trace for sha");
            return prepareTrace(workload, opts);
        });
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::InOrder;
    CoreConfig illegal = cfg;
    illegal.robEntries = 0;
    CoreConfig noreba = cfg;
    noreba.commitMode = CommitMode::Noreba;
    const std::vector<SweepJob> jobs = {
        {"CRC32", cfg, shortTrace()},   {"CRC32", illegal, shortTrace()},
        {"sha", cfg, shortTrace()},     {"CRC32", noreba, shortTrace()},
        {"sha", noreba, shortTrace()},
    };
    auto results =
        SweepRunner(1, &cache).run(jobs, FailurePolicy::Isolate);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i : {0, 3}) {
        EXPECT_TRUE(results[i].ok) << i;
        EXPECT_GT(results[i].stats.cycles, 0u) << i;
    }
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].failure.site, "config.validate");
    EXPECT_NE(results[1].failure.what.find("robEntries"),
              std::string::npos);
    for (size_t i : {2, 4}) {
        EXPECT_FALSE(results[i].ok) << i;
        EXPECT_EQ(results[i].failure.site, "bundle_cache.build") << i;
    }
    // The cache keeps the failed build: sha's builder ran once.
    EXPECT_EQ(builds["sha"], 1);
    EXPECT_EQ(builds["CRC32"], 1);

    // The failed record serializes without stats but with the failure.
    std::string text = sweepToJson(results).dump();
    EXPECT_NE(text.find("\"failed\":true"), std::string::npos);
    EXPECT_NE(text.find("\"site\":\"config.validate\""),
              std::string::npos);
}

TEST(SweepRunner, PropagatePolicyRethrowsAfterRetriesExhausted)
{
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::InOrder;
    cfg.robEntries = 0;
    BundleCache cache;
    try {
        SweepRunner(1, &cache).run({SweepJob{"CRC32", cfg, shortTrace()}});
        FAIL() << "expected the illegal config to propagate";
    } catch (const SimError &e) {
        EXPECT_EQ(e.site(), "config.validate");
    }
}

TEST(StripSetupRecords, RemapsGuardIndices)
{
    DynamicTrace in;
    in.name = "synthetic";
    in.dynInsts = 4;
    in.setupInsts = 2;

    auto rec = [](Opcode op, TraceIdx guard) {
        TraceRecord r;
        r.op = op;
        r.guardIdx = guard;
        return r;
    };
    for (const TraceRecord &r : {
             rec(Opcode::ADD, TRACE_NONE),           // 0 -> 0
             rec(Opcode::SET_BRANCH_ID, TRACE_NONE), // 1 -> dropped
             rec(Opcode::BEQ, TRACE_NONE),           // 2 -> 1
             rec(Opcode::SET_DEPENDENCY, TRACE_NONE),// 3 -> dropped
             rec(Opcode::ADD, 2),                    // 4 -> 2, guard 2 -> 1
             rec(Opcode::ADD, TRACE_NONE),           // 5 -> 3
         }) {
        uint32_t uncached = 0; // every record has pc 0: cache none
        in.push(r, uncached);
    }

    DynamicTrace out = stripSetupRecords(in);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.setupInsts, 0u);
    EXPECT_EQ(out.dynInsts, in.dynInsts);
    EXPECT_EQ(out[0].op, Opcode::ADD);
    EXPECT_EQ(out[1].op, Opcode::BEQ);
    EXPECT_EQ(out[0].guardIdx, TRACE_NONE);
    EXPECT_EQ(out[2].guardIdx, 1);
    EXPECT_EQ(out[3].guardIdx, TRACE_NONE);
}

TEST(StripSetupRecords, RoundTripsThroughPrepareTrace)
{
    TraceOptions stripped = shortTrace();
    stripped.stripSetups = true;
    TraceBundle bundle = prepareTrace("CRC32", stripped);
    ASSERT_GT(bundle.trace.size(), 0u);
    for (size_t i = 0; i < bundle.trace.size(); ++i) {
        const TraceRecord &r = bundle.trace[i];
        EXPECT_FALSE(r.isSetup());
        if (r.guardIdx < 0)
            continue;
        ASSERT_LT(static_cast<size_t>(r.guardIdx), bundle.trace.size());
        // Guards reference branch instances, and FIFO steering means
        // they precede their dependents.
        EXPECT_TRUE(bundle.trace[static_cast<size_t>(r.guardIdx)]
                        .isBranchSite());
        EXPECT_LT(static_cast<size_t>(r.guardIdx), i);
    }
}

// Dispatch: SweepRunner starts min(threads, jobs) workers that claim
// job indices from one counter; each result lands at its own index.

/** Twelve cheap, distinct jobs: two workloads, three modes, two widths. */
std::vector<SweepJob>
mixedJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *workload : {"CRC32", "sha"})
        for (CommitMode mode : {CommitMode::InOrder, CommitMode::Noreba,
                                CommitMode::SpeculativeBR})
            for (int width : {2, 4}) {
                CoreConfig cfg = skylakeConfig();
                cfg.commitMode = mode;
                cfg.commitWidth = width;
                jobs.push_back(SweepJob{workload, cfg, shortTrace()});
            }
    return jobs;
}

/** A BundleCache whose builder throws the int 42 for workload "int". */
BundleCache
intThrowingCache()
{
    return BundleCache(
        [](const std::string &workload, const TraceOptions &opts) {
            if (workload == "int")
                throw 42;
            return prepareTrace(workload, opts);
        });
}

TEST(SweepRunner, EmptySweepReturnsNoResults)
{
    BundleCache cache;
    for (unsigned threads : {1u, 8u})
        EXPECT_TRUE(SweepRunner(threads, &cache).run({}).empty())
            << threads;
}

TEST(SweepRunner, OneJobAndMoreThreadsThanJobsMatchSerial)
{
    const std::vector<SweepJob> all = mixedJobs();
    BundleCache cache;
    for (size_t n : {1, 3}) {
        const std::vector<SweepJob> jobs(all.begin(), all.begin() + n);
        const auto serial = SweepRunner(1, &cache).run(jobs);
        const auto wide = SweepRunner(8, &cache).run(jobs);
        ASSERT_EQ(serial.size(), n);
        ASSERT_EQ(wide.size(), n);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(wide[i].ok) << n << " jobs, job " << i;
            EXPECT_GT(wide[i].stats.cycles, 0u);
            EXPECT_TRUE(testutil::statsEqual(serial[i].stats,
                                             wide[i].stats))
                << n << " jobs, job " << i;
        }
    }
}

TEST(SweepRunner, EveryThreadCountKeepsSubmissionOrderAndStats)
{
    unsetenv("NOREBA_RESULT_DIR");
    const std::vector<SweepJob> jobs = mixedJobs();
    BundleCache bundles;
    ResultCache serialResults;
    const auto serial =
        SweepRunner(1, &bundles, &serialResults).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    for (unsigned threads : {2u, 3u, 8u}) {
        // A fresh result cache per run, so every run simulates.
        ResultCache results;
        const auto parallel =
            SweepRunner(threads, &bundles, &results).run(jobs);
        EXPECT_EQ(results.stats().simBuilds, jobs.size()) << threads;
        ASSERT_EQ(parallel.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(parallel[i].job.workload, jobs[i].workload);
            EXPECT_EQ(serializeConfig(parallel[i].job.cfg),
                      serializeConfig(jobs[i].cfg));
            EXPECT_TRUE(testutil::statsEqual(serial[i].stats,
                                             parallel[i].stats))
                << threads << " threads, job " << i;
        }
    }
}

TEST(SweepRunner, DuplicateJobsInOneSweepSimulateOnce)
{
    unsetenv("NOREBA_RESULT_DIR");
    const std::vector<SweepJob> distinct = mixedJobs();
    // Four copies of three distinct jobs, interleaved, so duplicates
    // run on different workers at the same time.
    std::vector<SweepJob> jobs;
    for (int copy = 0; copy < 4; ++copy)
        for (size_t d = 0; d < 3; ++d)
            jobs.push_back(distinct[d]);
    BundleCache bundles;
    ResultCache results;
    const auto out = SweepRunner(8, &bundles, &results).run(jobs);
    const SimCacheStats s = results.stats();
    EXPECT_EQ(s.simBuilds, 3u);
    EXPECT_EQ(s.memHits + s.sharedSims, jobs.size() - 3);
    ASSERT_EQ(out.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(testutil::statsEqual(out[i].stats, out[i % 3].stats))
            << i;
}

// A job that throws something that is not a std::exception is still
// its own job's failure: it must not escape into the dispatch loop.

TEST(SweepRunner, NonStandardExceptionFailsOnlyItsJobUnderIsolate)
{
    BundleCache cache = intThrowingCache();
    std::vector<SweepJob> jobs = mixedJobs();
    jobs.insert(jobs.begin() + 5, SweepJob{"int", skylakeConfig(),
                                           shortTrace()});
    for (unsigned threads : {1u, 4u}) {
        const auto results =
            SweepRunner(threads, &cache).run(jobs, FailurePolicy::Isolate);
        ASSERT_EQ(results.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (i == 5) {
                EXPECT_FALSE(results[i].ok) << threads;
                EXPECT_EQ(results[i].failure.site, "sweep.job");
                EXPECT_FALSE(results[i].failure.what.empty());
            } else {
                EXPECT_TRUE(results[i].ok) << threads << " job " << i;
                EXPECT_GT(results[i].stats.cycles, 0u);
            }
        }
    }
}

TEST(SweepRunner, NonStandardExceptionPropagatesInSubmissionOrder)
{
    BundleCache cache = intThrowingCache();
    CoreConfig illegal = skylakeConfig();
    illegal.robEntries = 0;
    const SweepJob ok{"CRC32", skylakeConfig(), shortTrace()};
    const SweepJob throwsInt{"int", skylakeConfig(), shortTrace()};
    const SweepJob throwsSimError{"CRC32", illegal, shortTrace()};
    for (unsigned threads : {1u, 4u}) {
        // The int comes first in submission order, so it is what
        // propagates, whichever worker failed first.
        try {
            SweepRunner(threads, &cache)
                .run({ok, throwsInt, ok, throwsSimError, ok});
            FAIL() << "expected the int to propagate";
        } catch (int v) {
            EXPECT_EQ(v, 42);
        }
        // And the other way round.
        try {
            SweepRunner(threads, &cache)
                .run({ok, throwsSimError, ok, throwsInt, ok});
            FAIL() << "expected the SimError to propagate";
        } catch (const SimError &e) {
            EXPECT_EQ(e.site(), "config.validate");
        }
    }
}

// OnceMemo on its own: one producer per key, whatever the callers.

TEST(OnceMemo, EightThreadsOnOneKeyProduceOnce)
{
    OnceMemo<int> memo;
    std::atomic<int> produced{0};
    std::atomic<bool> release{false};
    constexpr int N = 8;
    std::vector<int> got(N, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < N; ++t)
        threads.emplace_back([&, t] {
            got[t] = memo.get("key", [&] {
                ++produced;
                while (!release.load())
                    std::this_thread::yield();
                return 7;
            });
        });
    // Hold the producer until every other caller has joined it.
    while (memo.counts().joined != N - 1)
        std::this_thread::yield();
    release = true;
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(produced.load(), 1);
    for (int v : got)
        EXPECT_EQ(v, 7);
    auto counts = memo.counts();
    EXPECT_EQ(counts.resident + counts.joined, uint64_t{N - 1});
    EXPECT_EQ(memo.size(), 1u);

    // Once produced, the outcome is resident.
    EXPECT_EQ(memo.get("key", [] { return 0; }), 7);
    counts = memo.counts();
    EXPECT_EQ(counts.resident, 1u);
    EXPECT_EQ(counts.joined, uint64_t{N - 1});
}

TEST(OnceMemo, CountsAddUpUnderContention)
{
    OnceMemo<std::string> memo;
    constexpr int N = 8, KEYS = 64;
    std::vector<std::atomic<int>> produced(KEYS);
    std::atomic<bool> wrong{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < N; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < KEYS; ++i) {
                const int k = (i + 7 * t) % KEYS;
                const std::string key = "key-" + std::to_string(k);
                if (memo.get(key, [&] {
                        ++produced[k];
                        return "value-" + std::to_string(k);
                    }) != "value-" + std::to_string(k))
                    wrong = true;
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_FALSE(wrong.load());
    for (int k = 0; k < KEYS; ++k)
        EXPECT_EQ(produced[k].load(), 1) << k;
    EXPECT_EQ(memo.size(), size_t{KEYS});
    const auto counts = memo.counts();
    EXPECT_EQ(counts.resident + counts.joined, uint64_t{(N - 1) * KEYS});
}

TEST(OnceMemo, FailedProducerReachesEveryCaller)
{
    OnceMemo<int> memo;
    std::atomic<int> produced{0};
    std::atomic<bool> release{false};
    std::atomic<int> failures{0};
    constexpr int N = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < N; ++t)
        threads.emplace_back([&] {
            try {
                memo.get("key", [&]() -> int {
                    ++produced;
                    while (!release.load())
                        std::this_thread::yield();
                    throw std::runtime_error("injected producer failure");
                });
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "injected producer failure")
                    ++failures;
            }
        });
    while (memo.counts().joined != N - 1)
        std::this_thread::yield();
    release = true;
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(produced.load(), 1);
    EXPECT_EQ(failures.load(), N);
    // The failure is kept: a later caller gets it without producing.
    EXPECT_THROW(memo.get("key", [&] { return ++produced; }),
                 std::runtime_error);
    EXPECT_EQ(produced.load(), 1);
}

} // namespace
