/**
 * @file
 * Memory hierarchy: set-associative LRU caches for L1I/L1D/L2/L3 plus a
 * fixed-latency DRAM, matching Table 2 (32KB/4clk, 32KB/4clk,
 * 256KB/12clk, 1MB/36clk). Latency-accurate lookups; bandwidth and
 * MSHR contention are not modelled (see DESIGN.md deviations).
 */

#ifndef NOREBA_UARCH_CACHE_H
#define NOREBA_UARCH_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "uarch/config.h"

namespace noreba {

/** One set-associative, true-LRU cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg, const char *name);

    /**
     * Look up `addr`; on hit, update LRU and return true. On miss the
     * line is NOT filled (the hierarchy decides where fills go).
     */
    bool lookup(uint64_t addr);

    /** Probe without updating LRU or stats. */
    bool contains(uint64_t addr) const;

    /** Install the line containing `addr` (evicting the LRU way). */
    void fill(uint64_t addr);

    const char *name() const { return name_; }
    int latency() const { return cfg_.latency; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    CacheConfig cfg_;
    const char *name_;
    int numSets_;
    std::vector<Line> lines_; //!< numSets x ways
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    uint64_t blockAddr(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(cfg_.lineBytes);
    }
    int setOf(uint64_t block) const
    {
        return static_cast<int>(block % static_cast<uint64_t>(numSets_));
    }
};

/**
 * The full hierarchy, built from the Table 2 constants in
 * uarch/config.h. access() returns the total latency of a demand
 * access and performs the fills; prefetch() installs lines quietly.
 */
class MemoryHierarchy
{
  public:
    MemoryHierarchy();

    /** Demand data access (load or store-at-commit). */
    int access(uint64_t addr, bool write);

    /** Instruction fetch access. */
    int fetchAccess(uint64_t pc);

    /** Prefetch into the L2 without charging latency. */
    void prefetch(uint64_t addr);

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

  private:
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
};

/** Simple TLB: fully-associative-by-hash over 4 KiB pages. */
class Tlb
{
  public:
    Tlb(int entries, int missPenalty)
        : entries_(static_cast<size_t>(entries), ~0ull),
          missPenalty_(missPenalty)
    {
    }

    /** Returns the translation latency in cycles (1 on hit). */
    int
    access(uint64_t addr)
    {
        uint64_t vpn = addr >> 12;
        size_t slot = vpn % entries_.size();
        if (entries_[slot] == vpn) {
            ++hits_;
            return 1;
        }
        ++misses_;
        entries_[slot] = vpn;
        return 1 + missPenalty_;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    std::vector<uint64_t> entries_;
    int missPenalty_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace noreba

#endif // NOREBA_UARCH_CACHE_H
