/**
 * @file
 * Content-addressed on-disk store for simulation results, so a full
 * reproduction run pays for each distinct (workload, trace options,
 * core config) simulation once per *machine*: a cold `noreba-bench
 * --run all` publishes every CoreStats under NOREBA_RESULT_DIR and a
 * warm rerun replays the whole figure set from disk without simulating
 * (simBuilds == 0). Rerunning a killed run against the same directory
 * resumes it job by job.
 *
 * Keying is content-addressed: the key *text* is traceKey() (workload
 * and every TraceOptions field) followed by the canonical CoreConfig
 * serialization (uarch/config.h field table), so any knob that shapes
 * the simulation is part of the identity. Version tuple: the result
 * model version, the trace pass fingerprint, and the CoreStats layout
 * fingerprint (a hash of the counter names, so adding or deleting a
 * counter retires old results without a model-version bump).
 *
 * The envelope (header, checksums, stored key compared on load, file
 * naming, atomic publish, bypass) is the shared BlobStore
 * (sim/blob_store.h); this file serializes the payload: every CoreStats
 * counter as a u64, then the branch-stall map sorted by pc as
 * {pc, stallCycles, instances, dependents} u64 quads.
 */

#ifndef NOREBA_SIM_RESULT_STORE_H
#define NOREBA_SIM_RESULT_STORE_H

#include <cstdint>
#include <string>

#include "sim/blob_store.h"
#include "sim/runner.h"
#include "uarch/config.h"
#include "uarch/stats.h"

namespace noreba {

/** Bump on any change to the on-disk result payload layout or to the
 *  BlobStore envelope or file naming. */
constexpr uint32_t RESULT_STORE_FORMAT_VERSION = 4;

/**
 * Fingerprint of the simulation semantics: bump whenever Core, a
 * commit policy, the cache/predictor/prefetcher models, or anything
 * else that shapes CoreStats changes behaviour, so stale results miss
 * instead of silently reporting an old simulator's numbers. (Trace
 * semantics are covered separately by TRACE_STORE_PASS_FINGERPRINT,
 * which is folded into the version tuple.)
 */
constexpr uint64_t RESULT_STORE_MODEL_VERSION = 1;

/** The result store (NOREBA_RESULT_DIR). */
BlobStore &resultStore();

/**
 * The content-addressed identity of one simulation: traceKey() plus
 * the full canonical config serialization. Equal keys mean
 * bit-identical CoreStats (the simulator is deterministic).
 */
std::string resultKey(const std::string &workload, const CoreConfig &cfg,
                      const TraceOptions &opts);

/**
 * Full path of the result file for one key, or empty when the store
 * is disabled. `<workload>-<name hash>.v<format version>.nrs`
 * (BlobStore::path).
 */
std::string resultPath(const std::string &workload, const CoreConfig &cfg,
                       const TraceOptions &opts);

/**
 * Whether results for @p cfg may be served from / published to the
 * disk store. A shadowChecks run exists to *run* its checks, so
 * caching it would defeat the point; it is simulated for real.
 * attributeStalls runs are eligible — the per-branch stall map is
 * serialized alongside the counters.
 */
bool resultStoreEligible(const CoreConfig &cfg);

/**
 * Load the result at @p path, validating it against the expected
 * @p key text. Returns false on any mismatch or corruption — the
 * caller re-simulates.
 */
bool loadResult(const std::string &path, const std::string &key,
                CoreStats &out);

/**
 * Publish @p stats to @p path under @p key through resultStore().put().
 * Returns the bytes written, or 0 on failure (warns, never aborts —
 * losing a publish costs a re-simulation).
 */
size_t saveResult(const std::string &path, const std::string &key,
                  const CoreStats &stats);

} // namespace noreba

#endif // NOREBA_SIM_RESULT_STORE_H
