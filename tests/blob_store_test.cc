/**
 * @file
 * Failure paths of the shared BlobStore envelope, run over both of its
 * instances (the trace store and the result store) through their
 * public save/load functions. Every way a publish or read-back can
 * fail must leave either no file or the complete new one — never a
 * partial file or a leftover temp file — and corrupt, truncated,
 * version-mismatched or crash-shaped (empty, zeroed) files must miss.
 * A failed publish is not retried. I/O steps fail through each
 * store's BlobStore::failStep seam, and for real when the store
 * directory cannot be created. Also pins one file name per store, shows
 * that files under the previous format's names are never read, and
 * reads files larger and smaller than the read buffer.
 */

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/result_store.h"
#include "sim/sweep.h"
#include "sim/trace_store.h"
#include "store_test_util.h"
#include "test_util.h"

using namespace noreba;
using namespace noreba::test;

namespace {

TraceOptions
shortTrace()
{
    TraceOptions opts;
    opts.maxDynInsts = 20000;
    return opts;
}

/** One store, publishing and loading a fixed sample. */
class StoreUnderTest
{
  public:
    virtual ~StoreUnderTest() = default;
    /** The variable naming the store directory. */
    virtual const char *dirEnv() const = 0;
    virtual BlobStore &store() = 0;
    /** Where the sample lives (the store directory must be set). */
    virtual std::string path() const = 0;
    /** Publish the sample; the bytes written, or 0. */
    virtual size_t save(const std::string &path) = 0;
    /** Whether the file at @p path loads back as the sample. */
    virtual bool load(const std::string &path) = 0;
};

class TraceStoreUnderTest : public StoreUnderTest
{
  public:
    const char *dirEnv() const override { return "NOREBA_TRACE_DIR"; }
    BlobStore &store() override { return traceStore(); }

    std::string
    path() const override
    {
        return traceBundlePath("CRC32", shortTrace());
    }

    size_t
    save(const std::string &path) override
    {
        return saveTraceBundle(path, bundle_);
    }

    bool
    load(const std::string &path) override
    {
        auto mapped = MappedTraceBundle::open(path);
        return mapped && mapped->key() == traceKey("CRC32", shortTrace()) &&
               mapped->view().size() == bundle_.view().size() &&
               mapped->misp() == bundle_.mispredictions();
    }

  private:
    TraceBundle bundle_ = prepareTrace("CRC32", shortTrace());
};

class ResultStoreUnderTest : public StoreUnderTest
{
  public:
    const char *dirEnv() const override { return "NOREBA_RESULT_DIR"; }
    BlobStore &store() override { return resultStore(); }

    std::string
    path() const override
    {
        return resultPath("CRC32", cfg_, shortTrace());
    }

    size_t
    save(const std::string &path) override
    {
        return saveResult(path, key_, stats_);
    }

    bool
    load(const std::string &path) override
    {
        CoreStats loaded;
        return loadResult(path, key_, loaded) &&
               testutil::statsEqual(stats_, loaded);
    }

  private:
    CoreConfig cfg_ = skylakeConfig();
    std::string key_ = resultKey("CRC32", cfg_, shortTrace());
    CoreStats stats_ = syntheticStats();
};

std::unique_ptr<StoreUnderTest>
makeStore(const std::string &name)
{
    if (name == "trace_store")
        return std::make_unique<TraceStoreUnderTest>();
    return std::make_unique<ResultStoreUnderTest>();
}

/** Parameterized by the store's name. */
class StoreFaults : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        sut_->store().resetHealth();
        path_ = sut_->path();
        ASSERT_FALSE(path_.empty());
    }

    /** Fail the first hit of @p step with @p err, expect the publish
     *  to fail at once without leaving any file, then confirm a clean
     *  second publish leaves a loadable one. */
    void
    expectFailedThenCleanPublish(const char *step, int err)
    {
        StepFault fault(sut_->store(), step, err);
        EXPECT_EQ(sut_->save(path_), 0u);
        EXPECT_EQ(fault.hits(), 1u) << "failed publish was retried";
        EXPECT_FALSE(fileExists(path_)) << "partial file published";
        EXPECT_EQ(tmpFilesIn(dir_.path), 0) << "temp file left behind";

        fault.disarm();
        sut_->store().resetHealth();
        EXPECT_GT(sut_->save(path_), 0u);
        EXPECT_TRUE(sut_->load(path_));
    }

    std::unique_ptr<StoreUnderTest> sut_ = makeStore(GetParam());
    TempDir dir_{sut_->dirEnv()};
    std::string path_;
};

TEST_P(StoreFaults, ShortWriteLeavesNoPartialFile)
{
    expectFailedThenCleanPublish("write", ENOSPC);
}

TEST_P(StoreFaults, FailedRenameLeavesNoPartialFile)
{
    expectFailedThenCleanPublish("rename", EIO);
}

TEST_P(StoreFaults, ReadBackEioIsACacheMissNotACrash)
{
    ASSERT_GT(sut_->save(path_), 0u);
    StepFault fault(sut_->store(), "read", EIO);
    EXPECT_FALSE(sut_->load(path_));
    // The fault was one-shot: the intact file serves the next load.
    EXPECT_TRUE(sut_->load(path_));
}

TEST_P(StoreFaults, RepeatedPublishFailuresDegradeToBypass)
{
    StepFault fault(sut_->store(), "write", EIO, StepFault::EVERY_HIT);
    for (int i = 0; i < STORE_DEGRADE_STREAK; ++i)
        EXPECT_EQ(sut_->save(path_), 0u);
    EXPECT_TRUE(sut_->store().bypassed());

    // Degraded: no disk activity even with the fault gone.
    fault.disarm();
    EXPECT_EQ(sut_->save(path_), 0u);
    EXPECT_FALSE(fileExists(path_));

    // Reset re-arms the store.
    sut_->store().resetHealth();
    EXPECT_GT(sut_->save(path_), 0u);
    EXPECT_TRUE(sut_->load(path_));
}

TEST_P(StoreFaults, UncreatableDirectoryIsAFailedPublish)
{
    // A store directory under a regular file: creating it fails with
    // ENOTDIR, whatever the caller's privileges.
    writeFile(dir_.path + "/blocker", {0});
    ASSERT_EQ(setenv(sut_->dirEnv(),
                     (dir_.path + "/blocker/store").c_str(), 1),
              0);
    const std::string path = sut_->path();
    for (int i = 0; i < STORE_DEGRADE_STREAK; ++i) {
        EXPECT_FALSE(sut_->store().bypassed());
        EXPECT_EQ(sut_->save(path), 0u);
        EXPECT_FALSE(fileExists(path));
    }
    // Each failed publish counts toward the bypass streak.
    EXPECT_TRUE(sut_->store().bypassed());
}

TEST_P(StoreFaults, RejectsTruncatedBitFlippedAndVersionMismatchedFiles)
{
    ASSERT_GT(sut_->save(path_), 0u);
    const std::vector<uint8_t> good = readFile(path_);
    ASSERT_TRUE(sut_->load(path_));

    // Truncated: the trailing bytes are gone.
    std::vector<uint8_t> bad(good.begin(), good.end() - 5);
    writeFile(path_, bad);
    EXPECT_FALSE(sut_->load(path_));

    // Truncated below even the header.
    bad.assign(good.begin(), good.begin() + 16);
    writeFile(path_, bad);
    EXPECT_FALSE(sut_->load(path_));

    // A single flipped payload bit must fail the checksum.
    bad = good;
    bad[good.size() / 2] ^= 0x10;
    writeFile(path_, bad);
    EXPECT_FALSE(sut_->load(path_));

    // A format-version bump (byte 8, right after the magic) must be
    // rejected, not half-read with the old layout.
    bad = good;
    bad[8] ^= 0xff;
    writeFile(path_, bad);
    EXPECT_FALSE(sut_->load(path_));

    // A missing file is a miss, not a crash.
    EXPECT_FALSE(sut_->load(path_ + ".nope"));

    // Publishing never forces data to disk, so a host crash can leave
    // a file whose size arrived but whose data did not: empty, or
    // zeroed behind an intact header and key. Both must miss. The
    // header's own size (offset 12) and the key length (offset 24)
    // locate the payload.
    ASSERT_EQ(::truncate(path_.c_str(), 0), 0);
    EXPECT_FALSE(sut_->load(path_));

    uint32_t headerBytes = 0;
    uint64_t keyBytes = 0;
    std::memcpy(&headerBytes, good.data() + 12, sizeof(headerBytes));
    std::memcpy(&keyBytes, good.data() + 24, sizeof(keyBytes));
    const size_t payloadOff = pad8(headerBytes + keyBytes);
    ASSERT_LT(payloadOff, good.size());
    bad = good;
    std::fill(bad.begin() + static_cast<ptrdiff_t>(payloadOff), bad.end(),
              0);
    writeFile(path_, bad);
    EXPECT_FALSE(sut_->load(path_));

    // Pristine bytes restore a loadable file.
    writeFile(path_, good);
    EXPECT_TRUE(sut_->load(path_));
}

INSTANTIATE_TEST_SUITE_P(
    BothStores, StoreFaults,
    ::testing::Values(std::string("trace_store"),
                      std::string("result_store")),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// File names. The name hash is part of the on-disk format: these pins
// move with the key text, a store's version tuple or the naming
// function, and a naming change must also bump the store's format
// version, so that no file named the old way is ever read.

/** @p path with its trailing @p from replaced by @p to. */
std::string
replaceSuffix(const std::string &path, const std::string &from,
              const std::string &to)
{
    EXPECT_GE(path.size(), from.size());
    EXPECT_EQ(path.substr(path.size() - from.size()), from) << path;
    return path.substr(0, path.size() - from.size()) + to;
}

TEST(StoreNames, ResultFileNameIsPinned)
{
    TempDir dir("NOREBA_RESULT_DIR");
    EXPECT_EQ(resultPath("CRC32", skylakeConfig(), shortTrace()),
              dir.path + "/CRC32-0431bea93a9ad1f3.v4.nrs");
}

TEST(StoreNames, TraceFileNameIsPinned)
{
    TempDir dir("NOREBA_TRACE_DIR");
    EXPECT_EQ(traceBundlePath("CRC32", shortTrace()),
              dir.path + "/CRC32-722e923e0bc1a933.v6.ntb");
}

TEST(StoreNames, ResultFileUnderTheOldNameIsNeverRead)
{
    TempDir dir("NOREBA_RESULT_DIR");
    const SweepJob job{"CRC32", skylakeConfig(), shortTrace()};
    const std::string path = resultPath(job.workload, job.cfg, job.trace);
    ASSERT_GT(saveResult(path,
                         resultKey(job.workload, job.cfg, job.trace),
                         syntheticStats()),
              0u);
    // A valid file, moved to the name the previous format gave it.
    const std::string old = replaceSuffix(path, ".v4.nrs", ".v3.nrs");
    ASSERT_EQ(std::rename(path.c_str(), old.c_str()), 0);
    const std::vector<uint8_t> oldBytes = readFile(old);

    int simulations = 0;
    ResultCache cache;
    cache.get(job, [&] {
        ++simulations;
        return syntheticStats();
    });
    EXPECT_EQ(simulations, 1);
    EXPECT_EQ(cache.stats().diskHits, 0u);
    // Republished under the current name; the old file is untouched.
    EXPECT_TRUE(fileExists(path));
    EXPECT_EQ(readFile(old), oldBytes);
}

TEST(StoreNames, TraceFileUnderTheOldNameIsNeverRead)
{
    TempDir dir("NOREBA_TRACE_DIR");
    const std::string path = traceBundlePath("CRC32", shortTrace());
    ASSERT_GT(saveTraceBundle(path, prepareTrace("CRC32", shortTrace())),
              0u);
    const std::string old = replaceSuffix(path, ".v6.ntb", ".v5.ntb");
    ASSERT_EQ(std::rename(path.c_str(), old.c_str()), 0);
    const std::vector<uint8_t> oldBytes = readFile(old);

    BundleCache cache;
    ASSERT_NE(cache.get("CRC32", shortTrace()), nullptr);
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_TRUE(fileExists(path));
    EXPECT_EQ(readFile(old), oldBytes);
}

// read() reads to end of file into a buffer it grows and never
// shrinks, so one buffer serves files of any size in any order.

TEST(StoreRead, FilesLargerAndSmallerThanTheBufferRoundTrip)
{
    TempDir dir("NOREBA_RESULT_DIR");
    const CoreConfig cfg = skylakeConfig();
    CoreStats big = syntheticStats();
    for (uint64_t pc = 0; pc < 1000; ++pc)
        big.branchStalls[0x500000 + 4 * pc] = BranchStall{pc, 2 * pc, 1};
    CoreConfig other = cfg;
    other.commitWidth = 2;
    const CoreStats small = syntheticStats();

    const std::string bigKey = resultKey("CRC32", cfg, shortTrace());
    const std::string bigPath = resultPath("CRC32", cfg, shortTrace());
    const std::string smallKey = resultKey("CRC32", other, shortTrace());
    const std::string smallPath = resultPath("CRC32", other, shortTrace());
    ASSERT_GT(saveResult(bigPath, bigKey, big), 32000u);
    ASSERT_GT(saveResult(smallPath, smallKey, small), 0u);
    for (int round = 0; round < 2; ++round) {
        CoreStats loaded;
        ASSERT_TRUE(loadResult(smallPath, smallKey, loaded));
        EXPECT_TRUE(testutil::statsEqual(loaded, small));
        ASSERT_TRUE(loadResult(bigPath, bigKey, loaded));
        EXPECT_TRUE(testutil::statsEqual(loaded, big));
    }
    // A file cut short or grown past its recorded length still misses.
    std::vector<uint8_t> bytes = readFile(bigPath);
    bytes.push_back(0);
    writeFile(bigPath, bytes);
    CoreStats loaded;
    EXPECT_FALSE(loadResult(bigPath, bigKey, loaded));
    bytes.resize(bytes.size() - 2);
    writeFile(bigPath, bytes);
    EXPECT_FALSE(loadResult(bigPath, bigKey, loaded));
}

} // namespace
