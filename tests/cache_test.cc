/** @file Unit tests for the cache hierarchy, TLB and DCPT prefetcher. */

#include <gtest/gtest.h>

#include "uarch/cache.h"
#include "uarch/prefetcher.h"

namespace noreba {
namespace {

CacheConfig
tinyCache(int sizeBytes, int ways, int latency)
{
    CacheConfig cfg;
    cfg.sizeBytes = sizeBytes;
    cfg.ways = ways;
    cfg.lineBytes = 64;
    cfg.latency = latency;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache(4096, 4, 3), "t");
    EXPECT_FALSE(c.lookup(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.lookup(0x1000));
    EXPECT_TRUE(c.lookup(0x1030)); // same 64 B line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    // 4 sets x 2 ways; three lines mapping to the same set.
    Cache c(tinyCache(512, 2, 1), "t");
    auto addrForSet0 = [](int i) {
        return static_cast<uint64_t>(i) * 4 * 64; // stride sets*line
    };
    c.fill(addrForSet0(0));
    c.fill(addrForSet0(1));
    EXPECT_TRUE(c.lookup(addrForSet0(0))); // refresh LRU of line 0
    c.fill(addrForSet0(2));                // must evict line 1
    EXPECT_TRUE(c.contains(addrForSet0(0)));
    EXPECT_FALSE(c.contains(addrForSet0(1)));
    EXPECT_TRUE(c.contains(addrForSet0(2)));
}

TEST(Cache, ContainsDoesNotTouchStats)
{
    Cache c(tinyCache(4096, 4, 3), "t");
    c.contains(0x2000);
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Hierarchy, LatenciesMatchLevels)
{
    MemoryHierarchy mem;
    // Cold: full DRAM path.
    EXPECT_EQ(mem.access(0x100000, false),
              L3_CACHE.latency + DRAM_LATENCY);
    // Now resident in L1.
    EXPECT_EQ(mem.access(0x100000, false), L1D_CACHE.latency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy mem;
    mem.access(0x40000000, false);
    // Blast the L1 set with conflicting lines (same L1 set, different
    // L2 sets are fine).
    int l1Sets = L1D_CACHE.sizeBytes / (L1D_CACHE.lineBytes * L1D_CACHE.ways);
    for (int i = 1; i <= L1D_CACHE.ways + 2; ++i) {
        mem.access(0x40000000 +
                       static_cast<uint64_t>(i) * l1Sets * 64,
                   false);
    }
    int lat = mem.access(0x40000000, false);
    EXPECT_EQ(lat, L2_CACHE.latency);
}

TEST(Hierarchy, PrefetchLandsInL2NotL1)
{
    MemoryHierarchy mem;
    mem.prefetch(0x7000000);
    EXPECT_FALSE(mem.l1d().contains(0x7000000));
    EXPECT_EQ(mem.access(0x7000000, false), L2_CACHE.latency);
}

TEST(Hierarchy, FetchPathFillsL1I)
{
    MemoryHierarchy mem;
    int cold = mem.fetchAccess(0x10000);
    EXPECT_GT(cold, 0);
    EXPECT_EQ(mem.fetchAccess(0x10000), 0); // pipelined L1I hit
}

TEST(Tlb, HitAfterWalk)
{
    Tlb tlb(64, 30);
    EXPECT_EQ(tlb.access(0x5000), 31); // cold: walk
    EXPECT_EQ(tlb.access(0x5ff8), 1);  // same page
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, ConflictEvicts)
{
    Tlb tlb(4, 10);
    tlb.access(0x0);
    tlb.access(4ull * 4096); // same slot (vpn % 4)
    EXPECT_EQ(tlb.access(0x0), 11); // walked again
}

TEST(Dcpt, DetectsConstantStride)
{
    MemoryHierarchy mem;
    DcptPrefetcher dcpt;
    // Stride of 2 blocks from one PC.
    for (int i = 0; i < 32; ++i)
        dcpt.observe(0x400, 0x1000000 + static_cast<uint64_t>(i) * 128,
                     mem);
    EXPECT_GT(dcpt.issued(), 8u);
    EXPECT_GT(dcpt.patternHits(), 0u);
    // A near-future address of the stream should be L2-resident.
    EXPECT_EQ(mem.access(0x1000000 + 33 * 128, false), L2_CACHE.latency);
}

TEST(Dcpt, IgnoresSameLineAccesses)
{
    MemoryHierarchy mem;
    DcptPrefetcher dcpt;
    for (int i = 0; i < 64; ++i)
        dcpt.observe(0x400, 0x2000000 + static_cast<uint64_t>(i % 8),
                     mem);
    EXPECT_EQ(dcpt.issued(), 0u);
}

TEST(Dcpt, RandomStreamBarelyPrefetches)
{
    MemoryHierarchy mem;
    DcptPrefetcher dcpt;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 256; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        dcpt.observe(0x400, x % (1 << 24), mem);
    }
    EXPECT_LT(dcpt.issued(), 16u);
}

TEST(Dcpt, AlternatingDeltasReplay)
{
    MemoryHierarchy mem;
    DcptPrefetcher dcpt;
    // Deltas +1, +3, +1, +3 ... (in blocks).
    uint64_t addr = 0x3000000;
    for (int i = 0; i < 40; ++i) {
        dcpt.observe(0x500, addr, mem);
        addr += (i % 2 == 0) ? 64 : 192;
    }
    EXPECT_GT(dcpt.patternHits(), 0u);
    EXPECT_GT(dcpt.issued(), 4u);
}

TEST(Dcpt, SeparatePcsTrainSeparately)
{
    MemoryHierarchy mem;
    DcptPrefetcher dcpt;
    for (int i = 0; i < 32; ++i) {
        dcpt.observe(0x600, 0x4000000 + static_cast<uint64_t>(i) * 64,
                     mem);
        dcpt.observe(0x604, 0x5000000 + static_cast<uint64_t>(i) * 256,
                     mem);
    }
    EXPECT_GT(dcpt.issued(), 16u);
}

} // namespace
} // namespace noreba
