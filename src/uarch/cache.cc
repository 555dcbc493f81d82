#include "uarch/cache.h"

#include "common/logging.h"

namespace noreba {

Cache::Cache(const CacheConfig &cfg, const char *name)
    : cfg_(cfg), name_(name)
{
    numSets_ = cfg.sizeBytes / (cfg.lineBytes * cfg.ways);
    panic_if(numSets_ <= 0, "cache %s has no sets", name);
    lines_.resize(static_cast<size_t>(numSets_) *
                  static_cast<size_t>(cfg.ways));
}

bool
Cache::lookup(uint64_t addr)
{
    uint64_t block = blockAddr(addr);
    int set = setOf(block);
    Line *base = &lines_[static_cast<size_t>(set) *
                         static_cast<size_t>(cfg_.ways)];
    for (int w = 0; w < cfg_.ways; ++w) {
        if (base[w].valid && base[w].tag == block) {
            base[w].lru = ++tick_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

bool
Cache::contains(uint64_t addr) const
{
    uint64_t block = blockAddr(addr);
    int set = setOf(block);
    const Line *base = &lines_[static_cast<size_t>(set) *
                               static_cast<size_t>(cfg_.ways)];
    for (int w = 0; w < cfg_.ways; ++w)
        if (base[w].valid && base[w].tag == block)
            return true;
    return false;
}

void
Cache::fill(uint64_t addr)
{
    uint64_t block = blockAddr(addr);
    int set = setOf(block);
    Line *base = &lines_[static_cast<size_t>(set) *
                         static_cast<size_t>(cfg_.ways)];
    Line *victim = &base[0];
    for (int w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = block;
    victim->lru = ++tick_;
}

MemoryHierarchy::MemoryHierarchy()
    : l1i_(L1I_CACHE, "l1i"), l1d_(L1D_CACHE, "l1d"), l2_(L2_CACHE, "l2"),
      l3_(L3_CACHE, "l3")
{
}

int
MemoryHierarchy::access(uint64_t addr, bool write)
{
    (void)write; // write-allocate: same path as reads for latency
    if (l1d_.lookup(addr))
        return l1d_.latency();
    if (l2_.lookup(addr)) {
        l1d_.fill(addr);
        return l2_.latency();
    }
    if (l3_.lookup(addr)) {
        l2_.fill(addr);
        l1d_.fill(addr);
        return l3_.latency();
    }
    l3_.fill(addr);
    l2_.fill(addr);
    l1d_.fill(addr);
    return l3_.latency() + DRAM_LATENCY;
}

int
MemoryHierarchy::fetchAccess(uint64_t pc)
{
    if (l1i_.lookup(pc))
        return 0; // pipelined hit: no extra stall
    int latency;
    if (l2_.lookup(pc)) {
        latency = l2_.latency();
    } else if (l3_.lookup(pc)) {
        l2_.fill(pc);
        latency = l3_.latency();
    } else {
        l3_.fill(pc);
        l2_.fill(pc);
        latency = l3_.latency() + DRAM_LATENCY;
    }
    l1i_.fill(pc);
    return latency;
}

void
MemoryHierarchy::prefetch(uint64_t addr)
{
    // Prefetches land in the L2 (DCPT's prefetch buffer is modelled as
    // L2 residency): a prefetched demand access still pays the L2
    // latency, so prefetching is strong but not free.
    if (l1d_.contains(addr) || l2_.contains(addr))
        return;
    l2_.fill(addr);
}

} // namespace noreba
