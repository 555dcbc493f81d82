/**
 * @file
 * Tests for the canonical CoreConfig serialization (the X-macro field
 * table in uarch/config.h) and the content-addressed simulation-result
 * store: canonical text and fingerprint sensitivity per field, key
 * coverage of every simulation-shaping knob,
 * save/load round-trips including branch-stall attribution, rejection
 * of wrong-key files, and the in-process ResultCache + SweepRunner
 * integration that the warm `noreba-bench --run all` acceptance check
 * rests on. The envelope's corruption and fault paths are covered for
 * both stores in blob_store_test.cc.
 */

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <dirent.h>

#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/result_store.h"
#include "sim/sweep.h"
#include "sim/trace_store.h"
#include "store_test_util.h"
#include "test_util.h"
#include "uarch/config.h"
#include "uarch/stats.h"

using namespace noreba;
using namespace noreba::test;

namespace {

constexpr uint64_t TEST_TRACE_LEN = 20000;

constexpr CommitMode ALL_MODES[] = {
    CommitMode::InOrder,       CommitMode::NonSpecOoO,
    CommitMode::Noreba,        CommitMode::IdealReconv,
    CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
    CommitMode::ValidationBuffer,
};

TraceOptions
shortTrace()
{
    TraceOptions opts;
    opts.maxDynInsts = TEST_TRACE_LEN;
    return opts;
}

/** Mutate one field through its table entry; returns a description. */
std::string
mutateField(const ConfigFieldRef &ref)
{
    switch (ref.kind) {
    case ConfigFieldRef::Kind::Str:
        *ref.str += "-mutated";
        return "string";
    case ConfigFieldRef::Kind::Int:
        *ref.i += 1;
        return "int";
    case ConfigFieldRef::Kind::Bool:
        *ref.b = !*ref.b;
        return "bool";
    case ConfigFieldRef::Kind::Mode:
        *ref.mode = *ref.mode == CommitMode::InOrder
                        ? CommitMode::Noreba
                        : CommitMode::InOrder;
        return "mode";
    }
    return "?";
}

bool
configsEqual(const CoreConfig &a, const CoreConfig &b)
{
    return serializeConfig(a) == serializeConfig(b);
}

TEST(ConfigSerialization, RoundTripsEveryFactoryAndCommitMode)
{
    // The seven mode names are distinct, so no two modes share a key.
    std::set<std::string> names;
    for (CommitMode mode : ALL_MODES)
        names.insert(commitModeName(mode));
    EXPECT_EQ(names.size(), std::size(ALL_MODES));
    EXPECT_EQ(names.count("?"), 0u);

    // Every (factory, mode) pair serializes to its own canonical text,
    // the same for any copy of the config.
    CoreConfig factories[] = {skylakeConfig(), haswellConfig(),
                              nehalemConfig()};
    std::set<std::string> texts;
    for (CoreConfig &base : factories) {
        for (CommitMode mode : ALL_MODES) {
            CoreConfig cfg = base;
            cfg.commitMode = mode;
            const std::string text = serializeConfig(cfg);
            EXPECT_NE(text.find(std::string("\ncommitMode=") +
                                commitModeName(mode) + "\n"),
                      std::string::npos)
                << text;
            const CoreConfig copy = cfg;
            EXPECT_TRUE(configsEqual(cfg, copy));
            EXPECT_EQ(configFingerprint(cfg), configFingerprint(copy));
            texts.insert(text);
        }
    }
    EXPECT_EQ(texts.size(), std::size(factories) * std::size(ALL_MODES));
}

TEST(ConfigSerialization, EveryTableFieldAppearsExactlyOnce)
{
    CoreConfig cfg = skylakeConfig();
    const std::string text = serializeConfig(cfg);
    for (const ConfigFieldRef &ref : configFieldRefs(cfg)) {
        const std::string line = std::string(ref.name) + "=";
        size_t first = text.find(line);
        ASSERT_NE(first, std::string::npos) << ref.name;
        // Anchored at the start of a line.
        EXPECT_TRUE(first == 0 || text[first - 1] == '\n') << ref.name;
    }
    // Line count matches the table size — nothing extra, nothing
    // repeated.
    size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, configFieldRefs(cfg).size());
}

TEST(ConfigSerialization, MutatingAnyFieldChangesTheFingerprint)
{
    CoreConfig base = skylakeConfig();
    const uint64_t baseFp = configFingerprint(base);
    const size_t numFields = configFieldRefs(base).size();
    ASSERT_EQ(numFields, 18u);

    for (size_t i = 0; i < numFields; ++i) {
        CoreConfig cfg = skylakeConfig();
        auto refs = configFieldRefs(cfg);
        const std::string kind = mutateField(refs[i]);
        EXPECT_NE(configFingerprint(cfg), baseFp)
            << refs[i].name << " (" << kind
            << ") not covered by the fingerprint";
    }
}

TEST(ConfigSerialization, JsonListsEveryTableField)
{
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    const JsonValue json = configToJson(cfg);
    const auto refs = configFieldRefs(cfg);
    ASSERT_TRUE(json.isObject());
    ASSERT_EQ(json.size(), refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
        const ConfigFieldRef &ref = refs[i];
        EXPECT_EQ(json.keyAt(i), ref.name);
        const JsonValue &v = json.at(i);
        switch (ref.kind) {
          case ConfigFieldRef::Kind::Str:
            EXPECT_EQ(v.asString(), *ref.str) << ref.name;
            break;
          case ConfigFieldRef::Kind::Int:
            EXPECT_EQ(v.asInt(), *ref.i) << ref.name;
            break;
          case ConfigFieldRef::Kind::Bool:
            EXPECT_EQ(v.asBool(), *ref.b) << ref.name;
            break;
          case ConfigFieldRef::Kind::Mode:
            EXPECT_EQ(v.asString(), commitModeName(*ref.mode)) << ref.name;
            break;
        }
    }
    // The two identity keys noreba-stats-diff matches records by.
    EXPECT_EQ(json.find("name")->asString(), "SKL");
    EXPECT_EQ(json.find("commitMode")->asString(), "Noreba");
}

TEST(ConfigValidation, EveryIntFieldRejectsZero)
{
    CoreConfig probe = skylakeConfig();
    const size_t numFields = configFieldRefs(probe).size();
    size_t ints = 0;
    for (size_t i = 0; i < numFields; ++i) {
        CoreConfig cfg = skylakeConfig();
        const ConfigFieldRef ref = configFieldRefs(cfg)[i];
        if (ref.kind != ConfigFieldRef::Kind::Int)
            continue;
        ++ints;
        *ref.i = 0;
        try {
            validateConfig(cfg);
            ADD_FAILURE() << ref.name << " = 0 was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.site(), "config.validate");
            EXPECT_NE(std::string(e.what()).find(
                          std::string("field ") + ref.name + " = 0 "),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(ints, 11u);
}

TEST(ConfigValidation, FactoryConfigsPassInEveryMode)
{
    for (const char *name : {"SKL", "HSW", "NHM"}) {
        for (CommitMode mode : ALL_MODES) {
            CoreConfig cfg = configByName(name);
            cfg.commitMode = mode;
            EXPECT_NO_THROW(validateConfig(cfg))
                << name << "/" << commitModeName(mode);
        }
    }
}

TEST(ConfigValidation, SweepRecordsAnIllegalConfigAsAFailure)
{
    CoreConfig bad = skylakeConfig();
    bad.robEntries = 0;
    std::vector<SweepJob> jobs{SweepJob{"CRC32", bad, shortTrace()},
                               SweepJob{"CRC32", skylakeConfig(),
                                        shortTrace()}};
    BundleCache cache;
    auto results =
        SweepRunner(1, &cache).run(jobs, FailurePolicy::Isolate);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].failure.site, "config.validate");
    EXPECT_NE(results[0].failure.what.find("robEntries = 0"),
              std::string::npos)
        << results[0].failure.what;
    EXPECT_TRUE(results[1].ok);
}

TEST(ResultStore, KeyCoversEverySimulationShapingKnob)
{
    CoreConfig cfg = skylakeConfig();
    const TraceOptions opts = shortTrace();
    const std::string base = resultKey("CRC32", cfg, opts);

    EXPECT_NE(resultKey("mcf", cfg, opts), base);

    CoreConfig widened = cfg;
    widened.commitWidth += 1;
    EXPECT_NE(resultKey("CRC32", widened, opts), base);

    TraceOptions longer = opts;
    longer.maxDynInsts += 1;
    EXPECT_NE(resultKey("CRC32", cfg, longer), base);

    TraceOptions plain = opts;
    plain.annotate = false;
    EXPECT_NE(resultKey("CRC32", cfg, plain), base);

    TraceOptions stripped = opts;
    stripped.stripSetups = true;
    EXPECT_NE(resultKey("CRC32", cfg, stripped), base);

    // The key is the trace key plus the full canonical config
    // serialization, so every table field is covered by construction.
    EXPECT_EQ(base, traceKey("CRC32", opts) + serializeConfig(cfg));
}

TEST(ResultStore, PathIsEmptyWhenTheStoreIsDisabled)
{
    unsetenv("NOREBA_RESULT_DIR");
    EXPECT_TRUE(resultStore().dir().empty());
    EXPECT_TRUE(
        resultPath("CRC32", skylakeConfig(), shortTrace()).empty());

    TempDir dir("NOREBA_RESULT_DIR");
    EXPECT_EQ(resultStore().dir(), dir.path);
    EXPECT_FALSE(
        resultPath("CRC32", skylakeConfig(), shortTrace()).empty());
}

TEST(ResultStore, EligibilityExcludesVerificationAndEventTraceRuns)
{
    CoreConfig cfg = skylakeConfig();
    EXPECT_TRUE(resultStoreEligible(cfg));

    CoreConfig stalls = cfg;
    stalls.attributeStalls = true;
    EXPECT_TRUE(resultStoreEligible(stalls));

    CoreConfig shadow = cfg;
    shadow.shadowChecks = true;
    EXPECT_FALSE(resultStoreEligible(shadow));
}

TEST(ResultStore, RoundTripsEveryCounterAndBranchStalls)
{
    TempDir dir("NOREBA_RESULT_DIR");
    CoreConfig cfg = skylakeConfig();
    cfg.attributeStalls = true;
    const std::string key = resultKey("CRC32", cfg, shortTrace());
    const std::string path = resultPath("CRC32", cfg, shortTrace());
    ASSERT_FALSE(path.empty());

    const CoreStats written = syntheticStats();
    ASSERT_GT(saveResult(path, key, written), 0u);

    CoreStats loaded;
    ASSERT_TRUE(loadResult(path, key, loaded));
    EXPECT_TRUE(testutil::statsEqual(written, loaded));

    // The wrong key text must miss even at the right path — this is
    // the hash-collision guard.
    CoreStats miss;
    EXPECT_FALSE(
        loadResult(path, resultKey("mcf", cfg, shortTrace()), miss));
}

TEST(ResultCache, DedupsInProcessAndCountsMemoryHits)
{
    unsetenv("NOREBA_RESULT_DIR");
    ResultCache cache;
    SweepJob job{"CRC32", skylakeConfig(), shortTrace()};

    int simulations = 0;
    auto sim = [&] {
        ++simulations;
        CoreStats s;
        s.cycles = 42;
        s.committedInsts = 21;
        return s;
    };

    CoreStats first = cache.get(job, sim);
    CoreStats second = cache.get(job, sim);
    EXPECT_EQ(simulations, 1);
    EXPECT_EQ(first.cycles, 42u);
    EXPECT_EQ(second.cycles, 42u);
    EXPECT_EQ(cache.size(), 1u);

    SimCacheStats stats = cache.stats();
    EXPECT_EQ(stats.simBuilds, 1u);
    EXPECT_EQ(stats.memHits, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.stored, 0u); // store disabled

    // A different config is a different entry.
    SweepJob other = job;
    other.cfg.commitMode = CommitMode::Noreba;
    cache.get(other, sim);
    EXPECT_EQ(simulations, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ServesDiskHitsAcrossCacheInstances)
{
    TempDir dir("NOREBA_RESULT_DIR");
    SweepJob job{"CRC32", skylakeConfig(), shortTrace()};

    int simulations = 0;
    auto sim = [&] {
        ++simulations;
        return syntheticStats();
    };

    ResultCache cold;
    CoreStats built = cold.get(job, sim);
    EXPECT_EQ(simulations, 1);
    SimCacheStats coldStats = cold.stats();
    EXPECT_EQ(coldStats.simBuilds, 1u);
    EXPECT_EQ(coldStats.stored, 1u);
    EXPECT_GT(coldStats.bytesWritten, 0u);

    // A fresh cache (standing in for a new process) replays from disk
    // without invoking the simulation at all.
    ResultCache warm;
    CoreStats replayed = warm.get(job, sim);
    EXPECT_EQ(simulations, 1);
    SimCacheStats warmStats = warm.stats();
    EXPECT_EQ(warmStats.simBuilds, 0u);
    EXPECT_EQ(warmStats.diskHits, 1u);
    EXPECT_TRUE(testutil::statsEqual(built, replayed));

    // Ineligible configs bypass the disk store entirely.
    SweepJob shadow = job;
    shadow.cfg.shadowChecks = true;
    ResultCache bypass;
    bypass.get(shadow, sim);
    EXPECT_EQ(simulations, 2);
    ResultCache bypass2;
    bypass2.get(shadow, sim);
    EXPECT_EQ(simulations, 3);
    EXPECT_EQ(bypass2.stats().diskHits, 0u);
}

TEST(ResultCache, SimulationFailuresAreKept)
{
    unsetenv("NOREBA_RESULT_DIR");
    ResultCache cache;
    SweepJob job{"CRC32", skylakeConfig(), shortTrace()};

    int calls = 0;
    auto sim = [&]() -> CoreStats {
        ++calls;
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.get(job, sim), std::runtime_error);

    // The failure is the key's outcome: a second get() rethrows it
    // without simulating again, and nothing counts as a simulation.
    EXPECT_THROW(cache.get(job, sim), std::runtime_error);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.stats().simBuilds, 0u);
}

TEST(SweepRunner, WarmRunReplaysBitIdenticalResultsWithoutSimulating)
{
    TempDir dir("NOREBA_RESULT_DIR");
    const CommitMode modes[] = {CommitMode::InOrder, CommitMode::Noreba,
                                CommitMode::NonSpecOoO};
    std::vector<SweepJob> jobs;
    for (CommitMode mode : modes) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        jobs.push_back(SweepJob{"CRC32", cfg, shortTrace()});
    }
    // Duplicate the first job: in-process dedup must simulate it once.
    jobs.push_back(jobs.front());

    BundleCache coldBundles;
    ResultCache cold;
    auto coldResults = SweepRunner(2, &coldBundles, &cold).run(jobs);
    SimCacheStats coldStats = cold.stats();
    EXPECT_EQ(coldStats.simBuilds, 3u);
    EXPECT_EQ(coldStats.memHits + coldStats.sharedSims, 1u);
    EXPECT_EQ(coldStats.stored, 3u);

    BundleCache warmBundles;
    ResultCache warm;
    auto warmResults = SweepRunner(2, &warmBundles, &warm).run(jobs);
    SimCacheStats warmStats = warm.stats();
    EXPECT_EQ(warmStats.simBuilds, 0u);
    EXPECT_EQ(warmStats.diskHits, 3u);

    // Disk hits never materialize a trace bundle.
    EXPECT_EQ(warmBundles.stats().builds, 0u);
    EXPECT_EQ(warmBundles.stats().diskHits, 0u);

    ASSERT_EQ(coldResults.size(), jobs.size());
    ASSERT_EQ(warmResults.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(testutil::statsEqual(coldResults[i].stats,
                                         warmResults[i].stats))
            << commitModeName(jobs[i].cfg.commitMode);
        EXPECT_EQ(warmResults[i].job.workload, jobs[i].workload);
    }
}

TEST(SweepRunner, CustomBundleCacheAloneDisablesResultCaching)
{
    TempDir dir("NOREBA_RESULT_DIR");
    CoreConfig cfg = skylakeConfig();
    std::vector<SweepJob> jobs{SweepJob{"CRC32", cfg, shortTrace()}};

    // A synthetic/custom BundleCache without an explicit ResultCache
    // must not publish to (or read from) the global result store.
    BundleCache own;
    SweepRunner(1, &own).run(jobs);

    int files = 0;
    if (DIR *d = opendir(dir.path.c_str())) {
        while (dirent *e = readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                ++files;
        }
        closedir(d);
    }
    EXPECT_EQ(files, 0);
}

} // namespace
