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
 * directory cannot be created.
 */

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/result_store.h"
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

} // namespace
