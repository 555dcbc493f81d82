/**
 * @file
 * The on-disk envelope shared by the trace store (sim/trace_store.h)
 * and the result store (sim/result_store.h). Each is one BlobStore
 * instance; the stores themselves only serialize payloads.
 *
 * File layout (one file per key, little-endian host layout):
 *
 *   BlobHeader | key text | pad8 | payload
 *
 * The header carries a magic, the store's format version, a hash of
 * the caller's version tuple (semantic fingerprints, record layouts),
 * the key length, the file size, an FNV-1a checksum over the header
 * and a PayloadChecksum (common/hash.h, four lanes over 32-byte
 * stripes, memory speed) over everything after it. Any mismatch makes
 * a load miss, so a corrupt, truncated or stale file is never
 * half-read. The full key text is stored in the file, so a file-name
 * hash collision (or a file copied under another name) misses too.
 *
 * File names are `<workload>-<hash>.v<format>.<ext>`: the hash is a
 * PayloadChecksum over the version-tuple hash and then the key text,
 * so bumping any version simply misses and re-populates. The name hash
 * is part of the on-disk format: changing it means bumping the format
 * versions, so that no file named the old way is ever opened.
 *
 * Publishing writes a unique temp file and renames it over the final
 * name, so concurrent same-key writers race benignly and a running
 * reader never sees a partial file. The stores are caches: nothing is
 * forced to disk and nothing is retried. A crash may leave a file
 * whose data never reached the disk (empty or zeroed); the checksums
 * make it a miss, which costs one rebuild. A failed publish unlinks
 * its temp file and returns 0; STORE_DEGRADE_STREAK consecutive ones
 * latch the store into bypass mode (reads still serve, writes return
 * 0 at once, the run warns once). Tests fail I/O steps via failStep.
 *
 * Two read paths share one validation routine: map() serves large
 * files (trace bundles) zero-copy from a read-only mapping, read()
 * copies small files (results) into a buffer, which costs less than
 * setting up and tearing down a mapping per file. read() asks for no
 * file size: it reads to end of file (open, read, close for a file
 * that fits the buffer) and leaves the length check to validation.
 */

#ifndef NOREBA_SIM_BLOB_STORE_H
#define NOREBA_SIM_BLOB_STORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace noreba {

/** Consecutive failed publishes before a store degrades to bypass. */
constexpr int STORE_DEGRADE_STREAK = 3;

/** @p n rounded up to a multiple of 8 (section alignment). */
inline size_t
pad8(size_t n)
{
    return (n + 7) & ~size_t{7};
}

class BlobStore
{
  public:
    /**
     * @param name     warning label ("trace_store")
     * @param dirEnv   environment variable naming the store directory
     * @param ext      file extension
     * @param format   on-disk format version (also in the file name)
     * @param versions the caller's version tuple; any change misses
     */
    BlobStore(const char *name, const char *dirEnv, const char *ext,
              uint32_t format, std::initializer_list<uint64_t> versions);

    BlobStore(const BlobStore &) = delete;
    BlobStore &operator=(const BlobStore &) = delete;

    /** The store directory, or empty when the store is disabled. */
    std::string dir() const;

    /**
     * Full path of the file for @p key, or empty when the store is
     * disabled. @p workload only makes the name readable.
     */
    std::string path(const std::string &workload,
                     const std::string &key) const;

    /** A validated file, mapped read-only; unmapped on destruction. */
    class Mapping
    {
      public:
        ~Mapping();
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        std::span<const uint8_t> key() const { return key_; }
        std::span<const uint8_t> payload() const { return payload_; }
        size_t fileBytes() const { return fileBytes_; }

      private:
        friend class BlobStore;
        Mapping() = default;

        void *map_ = nullptr;
        size_t fileBytes_ = 0;
        std::span<const uint8_t> key_;
        std::span<const uint8_t> payload_;
    };

    /**
     * Map and validate the file at @p path. Returns nullptr on any
     * failure; the caller compares Mapping::key() itself. The payload
     * is 8-byte aligned.
     */
    std::unique_ptr<const Mapping> map(const std::string &path) const;

    /**
     * Read the file at @p path into @p buf and validate it, including
     * that its stored key equals @p key. Returns the payload inside
     * @p buf, or a span with a null data() on any failure. @p buf is
     * grown as needed and never shrunk, so a buffer reused across
     * reads (one per thread) stops allocating after the first.
     */
    std::span<const uint8_t> read(const std::string &path,
                                  const std::string &key,
                                  std::vector<uint8_t> &buf) const;

    /**
     * Publish @p parts, concatenated, as the payload for @p key at
     * @p path. Creates the store directory if needed. Returns the file
     * size, or 0 on failure or when the store is bypassed.
     */
    size_t put(const std::string &path, const std::string &key,
               std::initializer_list<std::span<const uint8_t>> parts);

    /** True once repeated publish failures degraded the store. */
    bool
    bypassed() const
    {
        return bypassed_.load(std::memory_order_relaxed);
    }

    /** Clear the failure streak and bypass latch (tests). */
    void resetHealth();

    /**
     * Test seam, empty by default: called with "read", "write" or
     * "rename" before that step; a non-zero return fails the step
     * with that errno.
     */
    std::function<int(const char *step)> failStep;

  private:
    bool validate(const uint8_t *file, size_t size,
                  std::span<const uint8_t> &key,
                  std::span<const uint8_t> &payload) const;
    bool publish(const std::string &path,
                 std::span<const std::span<const uint8_t>> pieces);
    void recordFailure();
    int injected(const char *step) const;

    const std::string name_;
    const char *const dirEnv_;
    const std::string ext_;
    const uint32_t format_;
    const uint64_t versionHash_;
    std::atomic<int> streak_{0};
    std::atomic<bool> bypassed_{false};
};

} // namespace noreba

#endif // NOREBA_SIM_BLOB_STORE_H
