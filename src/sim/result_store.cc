#include "sim/result_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "sim/trace_store.h"

namespace noreba {

namespace {

/** Quad per branch-stall entry: pc, stallCycles, instances, dependents. */
constexpr size_t STALL_BYTES = 4 * sizeof(uint64_t);

size_t
numCounters()
{
    size_t n = 0;
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter)
            ++n;
    return n;
}

/**
 * Fingerprint of the CoreStats counter set (names, in declaration
 * order), part of the store's version tuple: results written with a
 * different stats schema are rejected.
 */
uint64_t
coreStatsLayoutFingerprint()
{
    uint64_t h = fnv1a("CoreStats counters:");
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (!f.counter)
            continue;
        h = fnv1a(f.name, std::strlen(f.name), h);
        h = fnv1a("\n", 1, h);
    }
    return h;
}

} // namespace

BlobStore &
resultStore()
{
    static BlobStore store("result_store", "NOREBA_RESULT_DIR", "nrs",
                           RESULT_STORE_FORMAT_VERSION,
                           {RESULT_STORE_MODEL_VERSION,
                            TRACE_STORE_PASS_FINGERPRINT,
                            coreStatsLayoutFingerprint()});
    return store;
}

std::string
resultKey(const std::string &workload, const CoreConfig &cfg,
          const TraceOptions &opts)
{
    std::string key = traceKey(workload, opts);
    serializeConfig(cfg, key);
    return key;
}

std::string
resultPath(const std::string &workload, const CoreConfig &cfg,
           const TraceOptions &opts)
{
    return resultStore().path(workload, resultKey(workload, cfg, opts));
}

bool
resultStoreEligible(const CoreConfig &cfg)
{
    return !cfg.shadowChecks;
}

bool
loadResult(const std::string &path, const std::string &key, CoreStats &out)
{
    // One buffer per thread: a warm replay reads thousands of results.
    thread_local std::vector<uint8_t> buf;
    const std::span<const uint8_t> payload =
        resultStore().read(path, key, buf);
    const size_t counterBytes = numCounters() * sizeof(uint64_t);
    if (!payload.data() || payload.size() < counterBytes ||
        (payload.size() - counterBytes) % STALL_BYTES != 0)
        return false;

    out = CoreStats{};
    const uint8_t *p = payload.data();
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (!f.counter)
            continue;
        uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        p += sizeof(v);
        out.*f.counter = v;
    }
    for (const uint8_t *end = payload.data() + payload.size(); p < end;
         p += STALL_BYTES) {
        uint64_t rec[4];
        std::memcpy(rec, p, sizeof(rec));
        out.branchStalls[rec[0]] = BranchStall{rec[1], rec[2], rec[3]};
    }
    return true;
}

size_t
saveResult(const std::string &path, const std::string &key,
           const CoreStats &stats)
{
    // Sorted by pc so equal stats always serialize to equal bytes.
    std::vector<std::pair<uint64_t, BranchStall>> stalls(
        stats.branchStalls.begin(), stats.branchStalls.end());
    std::sort(stalls.begin(), stalls.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    std::vector<uint64_t> words;
    words.reserve(numCounters() + 4 * stalls.size());
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter)
            words.push_back(stats.*f.counter);
    for (const auto &[pc, s] : stalls)
        words.insert(words.end(),
                     {pc, s.stallCycles, s.instances, s.dependents});
    return resultStore().put(
        path, key,
        {{reinterpret_cast<const uint8_t *>(words.data()),
          words.size() * sizeof(uint64_t)}});
}

} // namespace noreba
