/**
 * @file
 * Tests for the on-disk trace-bundle store and the two-tier bundle
 * cache: full serialize/deserialize round-trips over the workload
 * registry, the per-record file footprint, a static entry per address
 * high half, record sections that end off an 8-byte boundary,
 * rejection of truncated / bit-flipped / version-mismatched bundle
 * files and of checksummed payloads with bad static ids, guards, or
 * misaligned or overlapping section offsets by the mmap loader,
 * atomic publish under concurrent same-key writers,
 * mmap-vs-in-memory replay bit-identity across every commit mode, the
 * stored-key check that refuses a bundle filed under another key, and
 * the fail-fast guards on TraceIdx overflow and zero-cycle speedups.
 * The envelope's fault paths are covered for both stores in
 * blob_store_test.cc.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/sweep.h"
#include "sim/trace_store.h"
#include "workloads/workloads.h"
#include "store_test_util.h"
#include "test_util.h"

using namespace noreba;
using namespace noreba::test;

namespace {

constexpr uint64_t TEST_TRACE_LEN = 20000;

TraceOptions
shortTrace()
{
    TraceOptions opts;
    opts.maxDynInsts = TEST_TRACE_LEN;
    return opts;
}

bool
recordsEqual(const TraceRecord &a, const TraceRecord &b)
{
    return a.pc == b.pc && a.nextPc == b.nextPc &&
           a.addrOrImm == b.addrOrImm && a.op == b.op &&
           a.memSize == b.memSize && a.taken == b.taken &&
           a.markedBranch == b.markedBranch &&
           a.orderSensitive == b.orderSensitive &&
           a.orderStrict == b.orderStrict && a.rd == b.rd &&
           a.rs1 == b.rs1 && a.rs2 == b.rs2 && a.rs3 == b.rs3 &&
           a.guardIdx == b.guardIdx;
}

/** Instance @p i of one load site whose address high half steps
 *  through 0, 1 and 2 every @p period instances. */
TraceRecord
highHalfRecord(size_t i, size_t period)
{
    TraceRecord rec;
    rec.pc = 0x1000;
    rec.nextPc = 0x1004;
    rec.op = Opcode::LW;
    rec.memSize = 4;
    rec.rd = 5;
    rec.rs1 = 6;
    rec.addrOrImm = uint64_t{(i / period) % 3} << 32 | (0xfff00000u + 4 * i);
    rec.guardIdx = static_cast<TraceIdx>(i) - 1;
    return rec;
}

/** Save @p bundle under its own key, map it back, and compare every
 *  record and every summary field. */
void
expectMappedViewMatches(const TraceBundle &bundle)
{
    SCOPED_TRACE(bundle.workload);
    const std::string path = traceBundlePath(bundle.workload, bundle.opts);
    ASSERT_FALSE(path.empty());
    ASSERT_GT(saveTraceBundle(path, bundle), 0u);
    auto mapped = MappedTraceBundle::open(path);
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(mapped->key(), traceKey(bundle.workload, bundle.opts));
    EXPECT_EQ(mapped->archChecksum(), bundle.checksum);
    EXPECT_EQ(mapped->misp(), bundle.mispredictions());

    TraceView disk = mapped->view();
    TraceView mem = bundle.view();
    ASSERT_EQ(disk.size(), mem.size());
    ASSERT_EQ(disk.numStatics(), mem.numStatics());
    EXPECT_EQ(disk.name(), mem.name());
    for (size_t i = 0; i < mem.numStatics(); ++i)
        ASSERT_TRUE(disk.statics()[i] == mem.statics()[i]) << "static " << i;
    for (size_t i = 0; i < mem.size(); ++i) {
        ASSERT_TRUE(recordsEqual(disk[i], mem[i])) << "record " << i;
        ASSERT_EQ(disk.pcOf(i), mem.pcOf(i)) << "record " << i;
        ASSERT_EQ(disk.guardOf(i), mem.guardOf(i)) << "record " << i;
    }
    size_t n = 0;
    for (TraceIterator d = disk.begin(), m = mem.begin(); d != disk.end();
         ++d, ++m, ++n)
        ASSERT_TRUE(recordsEqual(*d, *m)) << "iterated record " << n;
    EXPECT_EQ(n, mem.size());

    const TraceSummary &ds = disk.summary();
    const TraceSummary &ms = mem.summary();
    EXPECT_EQ(ds.dynInsts, ms.dynInsts);
    EXPECT_EQ(ds.setupInsts, ms.setupInsts);
    EXPECT_EQ(ds.branches, ms.branches);
    EXPECT_EQ(ds.takenBranches, ms.takenBranches);
    EXPECT_EQ(ds.loads, ms.loads);
    EXPECT_EQ(ds.stores, ms.stores);
    EXPECT_EQ(ds.truncated, ms.truncated);
}

TEST(TraceStore, RoundTripsEveryBundleField)
{
    TempDir dir("NOREBA_TRACE_DIR");
    TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    expectMappedViewMatches(bundle);
    auto mapped = MappedTraceBundle::open(
        traceBundlePath("CRC32", shortTrace()));
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(mapped->workload(), "CRC32");

    const PassResult &dp = mapped->pass();
    const PassResult &mp = bundle.pass;
    EXPECT_EQ(dp.numMarkedBranches, mp.numMarkedBranches);
    EXPECT_EQ(dp.numRegions, mp.numRegions);
    EXPECT_EQ(dp.numSetupInsts, mp.numSetupInsts);
    EXPECT_EQ(dp.instsBefore, mp.instsBefore);
    EXPECT_EQ(dp.instsAfter, mp.instsAfter);
    EXPECT_EQ(dp.numChainMerges, mp.numChainMerges);
    EXPECT_EQ(dp.numStrictRegions, mp.numStrictRegions);
    EXPECT_EQ(dp.guardOfInst, mp.guardOfInst);
    ASSERT_EQ(dp.branches.size(), mp.branches.size());
    for (size_t i = 0; i < mp.branches.size(); ++i) {
        const BranchSite &a = dp.branches[i];
        const BranchSite &b = mp.branches[i];
        EXPECT_EQ(a.bb, b.bb);
        EXPECT_EQ(a.instIdx, b.instIdx);
        EXPECT_EQ(a.globalIdx, b.globalIdx);
        EXPECT_EQ(a.compilerId, b.compilerId);
        EXPECT_EQ(a.reconvBlock, b.reconvBlock);
        EXPECT_EQ(a.guard, b.guard);
        EXPECT_EQ(a.numControlDeps, b.numControlDeps);
        EXPECT_EQ(a.numDataDeps, b.numDataDeps);
        EXPECT_EQ(a.controlBlocks, b.controlBlocks);
    }

    // Every registry workload, annotated, unannotated and stripped.
    for (const std::string &workload : workloadNames()) {
        for (int variant = 0; variant < 3; ++variant) {
            TraceOptions opts;
            opts.maxDynInsts = 3000;
            opts.annotate = variant != 1;
            opts.stripSetups = variant == 2;
            SCOPED_TRACE(variant);
            expectMappedViewMatches(prepareTrace(workload, opts));
        }
    }
}

TEST(TraceStore, BundleFilesHoldAtMost12AndAHalfBytesPerRecord)
{
    // The static table, the 12-byte records, the misprediction bitmap,
    // the pass blob and the envelope together: a wider record, or a
    // site that splits into a static entry per instance, fails here,
    // not only in the benchmark.
    TempDir dir("NOREBA_TRACE_DIR");
    TraceOptions opts;
    opts.maxDynInsts = 60000;
    for (const std::string &workload : workloadNames()) {
        const TraceBundle bundle = prepareTrace(workload, opts);
        const std::string path = traceBundlePath(workload, opts);
        const size_t bytes = saveTraceBundle(path, bundle);
        ASSERT_GT(bytes, 0u) << workload;
        EXPECT_EQ(readFile(path).size(), bytes) << workload;
        const double perRecord = static_cast<double>(bytes) /
                                 static_cast<double>(bundle.view().size());
        EXPECT_LE(perRecord, 12.5)
            << workload << ": " << bytes << " bytes for "
            << bundle.view().size() << " records";
    }
}

/**
 * The payload of a published bundle, and where its dynamic records
 * start (found by content: the section is the in-memory array).
 */
struct PayloadBytes
{
    std::vector<uint8_t> bytes;
    size_t dynOff = 0;
};

PayloadBytes
payloadOf(const std::string &path, const std::string &key,
          const TraceView &view)
{
    std::vector<uint8_t> buf;
    std::span<const uint8_t> payload = traceStore().read(path, key, buf);
    PayloadBytes out;
    if (!payload.data())
        return out;
    out.bytes.assign(payload.begin(), payload.end());
    const auto *dyn = reinterpret_cast<const uint8_t *>(view.dyn());
    auto at = std::search(out.bytes.begin(), out.bytes.end(), dyn,
                          dyn + view.size() * sizeof(DynRecord));
    out.dynOff = static_cast<size_t>(at - out.bytes.begin());
    return out;
}

/**
 * @p n records of one load site, built through push(), whose address
 * high half steps through 0, 1 and 2 every @p period instances; each
 * guarded by the record before, every third verdict a misprediction.
 * The seed gives each record count a store key of its own.
 */
TraceBundle
highHalfBundle(size_t n, size_t period)
{
    TraceBundle b;
    b.workload = "CRC32";
    b.opts = shortTrace();
    b.opts.params.seed = n;
    b.trace.name = "high-halves";
    uint32_t site = 0;
    for (size_t i = 0; i < n; ++i) {
        b.trace.push(highHalfRecord(i, period), site);
        b.misp.push_back(i % 3 == 0);
    }
    b.trace.dynInsts = n;
    b.trace.loads = n;
    return b;
}

TEST(TraceStore, EachAddressHighHalfGetsItsOwnStaticEntry)
{
    TempDir dir("NOREBA_TRACE_DIR");
    constexpr size_t PERIOD = 5, RECORDS = 4 * 3 * PERIOD;
    const TraceBundle bundle = highHalfBundle(RECORDS, PERIOD);

    // One entry per high half; the site cache re-interns on each step
    // and reuses the id between steps.
    const DynamicTrace &t = bundle.trace;
    ASSERT_EQ(t.statics.size(), 3u);
    for (size_t s = 0; s < 3; ++s)
        EXPECT_EQ(t.statics[s].addrHi, s);
    for (size_t i = 0; i < RECORDS; ++i)
        ASSERT_EQ(t.dyn[i].staticId(), (i / PERIOD) % 3) << i;

    expectMappedViewMatches(bundle);
    auto mapped =
        MappedTraceBundle::open(traceBundlePath(bundle.workload, bundle.opts));
    ASSERT_NE(mapped, nullptr);
    const TraceView mem(t), disk = mapped->view();
    for (size_t i = 0; i < RECORDS; ++i) {
        const TraceRecord want = highHalfRecord(i, PERIOD);
        ASSERT_TRUE(recordsEqual(mem[i], want)) << "record " << i;
        ASSERT_TRUE(recordsEqual(disk[i], want)) << "record " << i;
    }
}

TEST(TraceStore, RecordSectionsOffAnEightByteBoundaryRoundTrip)
{
    // An odd record count ends the 12-byte section 4 bytes past an
    // 8-byte boundary; the bitmap after it is padded back.
    TempDir dir("NOREBA_TRACE_DIR");
    for (size_t n : {1, 2, 3, 7, 8, 9, 4097}) {
        SCOPED_TRACE(n);
        const TraceBundle bundle = highHalfBundle(n, 2);
        expectMappedViewMatches(bundle);
        const PayloadBytes p =
            payloadOf(traceBundlePath(bundle.workload, bundle.opts),
                      traceKey(bundle.workload, bundle.opts), bundle.view());
        ASSERT_FALSE(p.bytes.empty());
        EXPECT_EQ(p.dynOff % 8, 0u);
        EXPECT_EQ((p.dynOff + n * sizeof(DynRecord)) % 8, n % 2 ? 4u : 0u);
    }
}

TEST(TraceStore, ChecksummedPayloadWithBadIdsGuardsOrAlignmentMisses)
{
    TempDir dir("NOREBA_TRACE_DIR");
    const TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    const std::string path = traceBundlePath("CRC32", shortTrace());
    const std::string key = traceKey("CRC32", shortTrace());
    ASSERT_GT(saveTraceBundle(path, bundle), 0u);
    const TraceView view = bundle.view();
    const PayloadBytes good = payloadOf(path, key, view);
    ASSERT_FALSE(good.bytes.empty());
    ASSERT_LT(good.dynOff, good.bytes.size());
    ASSERT_EQ(good.dynOff % 8, 0u);

    // Each corruption is published through the store, so the envelope
    // checksums are right and only the payload checks stand between
    // it and an out-of-bounds read.
    auto publish = [&](const std::vector<uint8_t> &payload) {
        ASSERT_GT(traceStore().put(path, key, {payload}), 0u);
    };
    auto recordAt = [&](std::vector<uint8_t> &payload, size_t i) {
        return payload.data() + good.dynOff + i * sizeof(DynRecord);
    };
    const size_t victim = view.size() / 2;

    publish(good.bytes);
    ASSERT_NE(MappedTraceBundle::open(path), nullptr);

    // A static id one past the table.
    std::vector<uint8_t> bad = good.bytes;
    const uint32_t outOfRange =
        static_cast<uint32_t>(view.numStatics()) << DYN_FLAG_BITS;
    std::memcpy(recordAt(bad, victim) + offsetof(DynRecord, idFlags),
                &outOfRange, sizeof(outOfRange));
    publish(bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // A guard that is not older than its record.
    bad = good.bytes;
    const TraceIdx self = static_cast<TraceIdx>(victim);
    std::memcpy(recordAt(bad, victim) + offsetof(DynRecord, guardIdx), &self,
                sizeof(self));
    publish(bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // The payload with the one metadata word that holds @p from set to
    // @p to (found by content, ahead of the static table).
    const size_t staticsOff =
        good.dynOff - view.numStatics() * sizeof(StaticInst);
    auto withOffset = [&](uint64_t from, uint64_t to) {
        std::vector<uint8_t> out = good.bytes;
        int found = 0;
        for (size_t off = 0; off + 8 <= staticsOff; off += 8) {
            uint64_t word;
            std::memcpy(&word, out.data() + off, 8);
            if (word == from) {
                std::memcpy(out.data() + off, &to, 8);
                ++found;
            }
        }
        EXPECT_EQ(found, 1) << "offset " << from;
        return out;
    };

    // The dynamic-section offset, moved off 8-byte alignment.
    publish(withOffset(good.dynOff, good.dynOff + 4));
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // The bitmap's offset, moved off 8-byte alignment, and moved back
    // over the end of the records.
    const size_t mispOff = pad8(good.dynOff + view.size() * sizeof(DynRecord));
    publish(withOffset(mispOff, mispOff + 4));
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);
    publish(withOffset(mispOff, mispOff - 8));
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    publish(good.bytes);
    EXPECT_NE(MappedTraceBundle::open(path), nullptr);
}

TEST(TraceStore, RejectsTruncatedBitFlippedAndVersionMismatchedFiles)
{
    TempDir dir("NOREBA_TRACE_DIR");
    TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    const std::string path = traceBundlePath("CRC32", shortTrace());
    ASSERT_GT(saveTraceBundle(path, bundle), 0u);
    const std::vector<uint8_t> good = readFile(path);
    ASSERT_NE(MappedTraceBundle::open(path), nullptr);

    // Truncated: the trailing records are gone.
    std::vector<uint8_t> bad(good.begin(), good.end() - 7);
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // Truncated below even the header.
    bad.assign(good.begin(), good.begin() + 16);
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // A single flipped payload bit must fail the checksum.
    bad = good;
    bad[good.size() / 2] ^= 0x10;
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // A version bump (byte 8, right after the magic) must be rejected,
    // not half-read with the old layout.
    bad = good;
    bad[8] ^= 0xff;
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // Pristine bytes restore a bundle that replays the same records.
    writeFile(path, good);
    auto mapped = MappedTraceBundle::open(path);
    ASSERT_NE(mapped, nullptr);
    TraceView disk = mapped->view();
    TraceView mem = bundle.view();
    ASSERT_EQ(disk.size(), mem.size());
    for (size_t i = 0; i < mem.size(); ++i)
        ASSERT_TRUE(recordsEqual(disk[i], mem[i])) << "record " << i;
}

TEST(TraceStore, ConcurrentSameKeyWritersPublishAtomically)
{
    TempDir dir("NOREBA_TRACE_DIR");
    TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    const std::string path = traceBundlePath("CRC32", shortTrace());

    // Many writers race on one key; readers poll throughout. A reader
    // must only ever observe "no file yet" or a fully valid bundle.
    std::atomic<bool> sawInvalid{false};
    std::atomic<int> published{0};
    ThreadPool pool(8);
    for (int i = 0; i < 8; ++i) {
        pool.submit([&] {
            if (saveTraceBundle(path, bundle) > 0)
                ++published;
            if (fileExists(path) && MappedTraceBundle::open(path) == nullptr)
                sawInvalid = true;
        });
    }
    pool.wait();
    EXPECT_FALSE(sawInvalid.load());
    EXPECT_EQ(published.load(), 8);
    auto mapped = MappedTraceBundle::open(path);
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(mapped->view().size(), bundle.view().size());

    // No temp files left behind by the racing writers.
    EXPECT_EQ(tmpFilesIn(dir.path), 0);
}

TEST(TraceStore, MmapReplayBitIdenticalForEveryCommitMode)
{
    const CommitMode modes[] = {
        CommitMode::InOrder,       CommitMode::NonSpecOoO,
        CommitMode::Noreba,        CommitMode::IdealReconv,
        CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
        CommitMode::ValidationBuffer,
    };
    std::vector<SweepJob> jobs;
    for (CommitMode mode : modes) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        jobs.push_back(SweepJob{"CRC32", cfg, shortTrace()});
    }

    // Reference: in-memory replay with the store disabled.
    unsetenv("NOREBA_TRACE_DIR");
    BundleCache memCache;
    auto memResults = SweepRunner(2, &memCache).run(jobs);
    EXPECT_EQ(memCache.stats().diskHits, 0u);

    TempDir dir("NOREBA_TRACE_DIR");

    // Cold: builds and publishes the bundle.
    BundleCache coldCache;
    auto coldResults = SweepRunner(2, &coldCache).run(jobs);
    BundleCacheStats cold = coldCache.stats();
    EXPECT_EQ(cold.builds, 1u);
    EXPECT_EQ(cold.diskHits, 0u);
    EXPECT_GT(cold.bytesWritten, 0u);

    // Warm: a fresh cache (standing in for a new process) mmaps it.
    BundleCache warmCache;
    auto warmResults = SweepRunner(2, &warmCache).run(jobs);
    BundleCacheStats warm = warmCache.stats();
    EXPECT_EQ(warm.builds, 0u);
    EXPECT_EQ(warm.diskHits, 1u);
    EXPECT_GT(warm.bytesMapped, 0u);

    ASSERT_EQ(memResults.size(), jobs.size());
    ASSERT_EQ(coldResults.size(), jobs.size());
    ASSERT_EQ(warmResults.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(testutil::statsEqual(memResults[i].stats,
                                         coldResults[i].stats))
            << commitModeName(jobs[i].cfg.commitMode) << " (cold)";
        EXPECT_TRUE(testutil::statsEqual(memResults[i].stats,
                                         warmResults[i].stats))
            << commitModeName(jobs[i].cfg.commitMode) << " (mmap)";
    }
}

TEST(TraceStore, StrippedBundlesRoundTripThroughTheStore)
{
    TempDir dir("NOREBA_TRACE_DIR");
    TraceOptions stripped = shortTrace();
    stripped.stripSetups = true;

    BundleCache coldCache;
    auto cold = coldCache.get("mcf", stripped);
    BundleCache warmCache;
    auto warm = warmCache.get("mcf", stripped);
    EXPECT_EQ(warmCache.stats().diskHits, 1u);

    TraceView a = cold->view(), b = warm->view();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.summary().setupInsts, 0u);
    EXPECT_EQ(b.summary().setupInsts, 0u);
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(recordsEqual(a[i], b[i])) << "record " << i;
}

TEST(BundleCache, RebuildsWhenTheStoredKeyDiffers)
{
    TempDir dir("NOREBA_TRACE_DIR");
    const TraceOptions mine = shortTrace();
    TraceOptions other = shortTrace();
    other.params.seed += 1;
    const std::string minePath = traceBundlePath("CRC32", mine);
    const std::string otherPath = traceBundlePath("CRC32", other);
    ASSERT_NE(minePath, otherPath);
    ASSERT_GT(saveTraceBundle(minePath, prepareTrace("CRC32", mine)), 0u);

    // A valid bundle filed under another key's name (a hash collision,
    // a copied file) must be rebuilt, not replayed as that key's trace.
    writeFile(otherPath, readFile(minePath));
    BundleCache cache;
    auto bundle = cache.get("CRC32", other);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_EQ(bundle->opts.params.seed, other.params.seed);

    // The rebuild republished the slot under its own key.
    BundleCache warm;
    warm.get("CRC32", other);
    EXPECT_EQ(warm.stats().diskHits, 1u);
    EXPECT_EQ(MappedTraceBundle::open(otherPath)->key(),
              traceKey("CRC32", other));
}

// Satellite guards: overlong traces and zero-cycle speedups fail fast
// instead of silently corrupting TraceIdx arithmetic or geomeans.

TEST(TraceLimits, InterpreterThrowsSimErrorBeyondTraceIdxRange)
{
    TraceOptions opts;
    opts.maxDynInsts = MAX_TRACE_RECORDS + 1;
    // Thrown (not fatal()): an overlong workload must fail its own
    // sweep job, not the whole bench process (DESIGN.md §13).
    try {
        prepareTrace("CRC32", opts);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.site(), "interp.trace_limit");
        EXPECT_NE(std::string(e.what()).find("TraceIdx limit"),
                  std::string::npos);
    }
}

TEST(TraceLimits, SpeedupPanicsOnZeroCycleRuns)
{
    CoreStats baseline, candidate;
    baseline.cycles = 100;
    candidate.cycles = 0;
    EXPECT_DEATH(speedup(baseline, candidate), "zero-cycle");
    EXPECT_DEATH(speedup(candidate, baseline), "zero-cycle");
}

} // namespace
