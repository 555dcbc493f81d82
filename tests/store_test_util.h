/**
 * @file
 * Helpers shared by the test suites that touch the on-disk stores: a
 * temporary directory, whole-file reads and writes, temp-file
 * counting, a scoped failing I/O step for one store, and a synthetic
 * CoreStats sample.
 */

#ifndef NOREBA_TESTS_STORE_TEST_UTIL_H
#define NOREBA_TESTS_STORE_TEST_UTIL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/result_store.h"
#include "sim/trace_store.h"
#include "uarch/stats.h"

namespace noreba::test {

/**
 * A temporary directory under the working directory (tests must not
 * litter /tmp), removed with its files on scope exit. When @p env is
 * non-null, the directory is exported as that variable for the scope.
 */
class TempDir
{
  public:
    explicit TempDir(const char *env = nullptr) : env_(env)
    {
        char tmpl[] = "noreba_test_XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
        if (env_)
            setenv(env_, path.c_str(), 1);
    }

    ~TempDir()
    {
        if (env_)
            unsetenv(env_);
        if (path.empty())
            return;
        if (DIR *d = opendir(path.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    unlink((path + "/" + name).c_str());
            }
            closedir(d);
        }
        rmdir(path.c_str());
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string path;

  private:
    const char *env_;
};

/**
 * Fails the first @p count hits of one I/O step ("read", "write" or
 * "rename") of @p store with @p err, through
 * BlobStore::failStep, and counts every hit of that step while armed.
 * Disarms on scope exit.
 */
class StepFault
{
  public:
    static constexpr unsigned EVERY_HIT = ~0u;

    StepFault(BlobStore &store, std::string step, int err,
              unsigned count = 1)
        : store_(store)
    {
        store_.failStep = [this, step = std::move(step), err,
                           count](const char *s) {
            if (step != s)
                return 0;
            return hits_++ < count ? err : 0;
        };
    }

    ~StepFault() { disarm(); }

    StepFault(const StepFault &) = delete;
    StepFault &operator=(const StepFault &) = delete;

    void disarm() { store_.failStep = nullptr; }
    unsigned hits() const { return hits_; }

  private:
    BlobStore &store_;
    unsigned hits_ = 0;
};

inline std::vector<uint8_t>
readFile(const std::string &path)
{
    std::vector<uint8_t> bytes;
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
}

inline void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Publish temp files (`*.tmp.*`) left in @p dir. */
inline int
tmpFilesIn(const std::string &dir)
{
    int n = 0;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *e = readdir(d))
            if (std::strstr(e->d_name, ".tmp."))
                ++n;
        closedir(d);
    }
    return n;
}

inline bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** A CoreStats with every counter distinct and non-zero, and stalls. */
inline CoreStats
syntheticStats()
{
    CoreStats stats;
    uint64_t next = 1;
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter)
            stats.*(f.counter) = next++ * 7919;
    stats.branchStalls[0x400100] = BranchStall{123, 45, 6};
    stats.branchStalls[0x400200] = BranchStall{7, 8, 9};
    return stats;
}

} // namespace noreba::test

#endif // NOREBA_TESTS_STORE_TEST_UTIL_H
