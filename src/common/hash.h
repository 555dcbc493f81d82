/**
 * @file
 * Shared hashing for cache keys, file fingerprints and store payloads.
 *
 * fnv1a() is 64-bit FNV-1a over raw bytes: stable across runs, and the
 * hash of the stores' header checksums, version tuples and config
 * fingerprints. It handles one byte per 64-bit multiply, each waiting
 * on the last, so it runs at about 2 ns per byte; it no longer names
 * store files, whose keys run to hundreds of bytes.
 *
 * PayloadChecksum covers store payloads (megabytes per trace bundle)
 * and names store files (the version hash and the key text).
 * Four independent multiply-rotate lanes each take one 64-bit word of
 * every 32-byte stripe, so four multiplies are in flight at once. The
 * lanes are merged, the total length is folded in, and the bytes past
 * the last full stripe are hashed with FNV-1a. Every step is a
 * bijection of the running state, so any single-bit change of the
 * input changes the sum. It is portable C++ (no intrinsics), and the
 * result is part of the stores' on-disk format: changing it means
 * bumping both stores' format versions.
 */

#ifndef NOREBA_COMMON_HASH_H
#define NOREBA_COMMON_HASH_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace noreba {

inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = 1469598103934665603ull)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

inline uint64_t
fnv1a(const std::string &s, uint64_t h = 1469598103934665603ull)
{
    return fnv1a(s.data(), s.size(), h);
}

/** Incremental word-wise checksum; see the file comment. */
class PayloadChecksum
{
  public:
    void
    update(std::span<const uint8_t> bytes)
    {
        const uint8_t *p = bytes.data();
        size_t n = bytes.size();
        if (n == 0)
            return;
        total_ += n;
        if (buffered_ > 0) {
            const size_t take = std::min(n, STRIPE - buffered_);
            std::memcpy(buf_ + buffered_, p, take);
            buffered_ += take;
            p += take;
            n -= take;
            if (buffered_ < STRIPE)
                return;
            stripe(buf_);
            buffered_ = 0;
        }
        for (; n >= STRIPE; p += STRIPE, n -= STRIPE)
            stripe(p);
        if (n > 0)
            std::memcpy(buf_, p, n);
        buffered_ = n;
    }

    uint64_t
    finish() const
    {
        uint64_t h = P5;
        for (uint64_t lane : lanes_)
            h = (h ^ round(0, lane)) * P1 + P4;
        h += total_;
        h = fnv1a(buf_, buffered_, h);
        h ^= h >> 33;
        h *= P2;
        h ^= h >> 29;
        h *= P3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr size_t STRIPE = 32;
    static constexpr uint64_t P1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t P3 = 0x165667b19e3779f9ull;
    static constexpr uint64_t P4 = 0x85ebca77c2b2ae63ull;
    static constexpr uint64_t P5 = 0x27d4eb2f165667c5ull;

    /** One lane step: bijective in @p acc for a fixed @p word, and in
     *  @p word for a fixed @p acc. */
    static uint64_t
    round(uint64_t acc, uint64_t word)
    {
        acc += word * P2;
        acc = (acc << 31) | (acc >> 33);
        return acc * P1;
    }

    void
    stripe(const uint8_t *p)
    {
        for (size_t i = 0; i < 4; ++i) {
            uint64_t word;
            std::memcpy(&word, p + 8 * i, sizeof(word));
            lanes_[i] = round(lanes_[i], word);
        }
    }

    uint64_t lanes_[4] = {P1 + P2, P2, 0, 0 - P1};
    uint8_t buf_[STRIPE] = {};
    size_t buffered_ = 0;
    uint64_t total_ = 0;
};

/** PayloadChecksum of one contiguous buffer. */
inline uint64_t
payloadChecksum(std::span<const uint8_t> bytes)
{
    PayloadChecksum sum;
    sum.update(bytes);
    return sum.finish();
}

} // namespace noreba

#endif // NOREBA_COMMON_HASH_H
