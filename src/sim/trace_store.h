/**
 * @file
 * On-disk store for prepared trace bundles, so the compile -> annotate
 * -> interpret -> predictor-replay pipeline runs once per (workload,
 * options) across *processes*: a cold bench run publishes each bundle
 * under NOREBA_TRACE_DIR and every later bench (or sweep worker) starts
 * from an mmap in milliseconds, with memory bounded by the page cache
 * instead of one heap vector per process.
 *
 * The envelope (header, checksums, key text, file naming, atomic
 * publish, bypass) is the shared BlobStore (sim/blob_store.h);
 * this file serializes the payload:
 *
 *   BundleMeta | workload | trace name | pad8 | StaticInst[] |
 *   DynRecord[] | pad8 | misprediction bitmap | pad8 | PassResult blob
 *
 * BundleMeta records each section's offset. The static table (32 B an
 * entry) and the dynamic records (12 B each) are their in-memory
 * layouts verbatim — fixed-width, trivially copyable,
 * layout-fingerprinted — so a mapped file serves them zero-copy
 * through a TraceView. open() checks that every section is 8-byte
 * aligned and in bounds, and that every record names an existing
 * static entry and an older guard.
 *
 * Key: traceKey(), the workload and every TraceOptions field. Version
 * tuple: the pass fingerprint and the StaticInst/DynRecord layout
 * fingerprint, so a semantic or ABI change misses instead of serving
 * stale data.
 */

#ifndef NOREBA_SIM_TRACE_STORE_H
#define NOREBA_SIM_TRACE_STORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/blob_store.h"
#include "sim/runner.h"

namespace noreba {

/** Bump on any change to the on-disk bundle payload layout or to the
 *  BlobStore envelope or file naming. */
constexpr uint32_t TRACE_STORE_FORMAT_VERSION = 6;

/**
 * Fingerprint of the trace-producing semantics: bump whenever the
 * compiler pass, the interpreter's BIT/DCT replay, a workload
 * generator, or the branch predictor changes behaviour, so stale
 * bundles miss instead of silently replaying old semantics.
 */
constexpr uint64_t TRACE_STORE_PASS_FINGERPRINT = 1;

/** The trace store (NOREBA_TRACE_DIR). */
BlobStore &traceStore();

/**
 * The identity of one prepared trace: the workload name and every
 * TraceOptions field, as canonical text. resultKey() extends it: the
 * string is reserved with room for the config lines it appends.
 */
std::string traceKey(const std::string &workload, const TraceOptions &opts);

/**
 * Full path of the bundle file for one cache key, or empty when the
 * store is disabled: `<workload>-<name hash>.v<format version>.ntb`
 * (BlobStore::path).
 */
std::string traceBundlePath(const std::string &workload,
                            const TraceOptions &opts);

/**
 * An open, validated, memory-mapped bundle file. Owns the mapping;
 * TraceViews handed out point into it, so keep the shared_ptr alive
 * for as long as any view (TraceBundle::mapped does exactly that).
 */
class MappedTraceBundle
{
  public:
    /**
     * Map and validate `path`. Returns nullptr on any failure — missing
     * file, wrong magic/version/fingerprint, truncation, checksum
     * mismatch, malformed payload — never a partially valid bundle.
     * The stored key is not checked here: compare key() against the
     * traceKey() you asked for.
     */
    static std::shared_ptr<const MappedTraceBundle>
    open(const std::string &path);

    /** Zero-copy view of the static table and the dynamic records. */
    TraceView view() const;

    /** The traceKey() the bundle was published under. */
    const std::string &key() const { return key_; }
    const std::string &workload() const { return workload_; }
    /** Misprediction verdicts, expanded from the on-disk bitmap. */
    const std::vector<uint8_t> &misp() const { return misp_; }
    const PassResult &pass() const { return pass_; }
    /** Architectural result checksum (Interpreter::regChecksum). */
    uint64_t archChecksum() const { return archChecksum_; }
    /** Total mapped file size in bytes. */
    size_t fileBytes() const { return map_->fileBytes(); }

  private:
    MappedTraceBundle() = default;

    std::unique_ptr<const BlobStore::Mapping> map_;
    const StaticInst *statics_ = nullptr;
    size_t numStatics_ = 0;
    const DynRecord *dyn_ = nullptr;
    size_t numRecords_ = 0;
    TraceSummary summary_;
    std::string key_;
    std::string name_;
    std::string workload_;
    std::vector<uint8_t> misp_;
    PassResult pass_;
    uint64_t archChecksum_ = 0;
};

/**
 * Publish `bundle` to `path` under traceKey(bundle.workload,
 * bundle.opts) through traceStore().put(). Returns the bytes written,
 * or 0 on failure (warns, never aborts — losing a publish costs a
 * rebuild).
 */
size_t saveTraceBundle(const std::string &path, const TraceBundle &bundle);

} // namespace noreba

#endif // NOREBA_SIM_TRACE_STORE_H
