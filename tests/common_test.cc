/** @file Unit tests for the common utilities (rng, stats, tables,
 *  the payload checksum). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace noreba {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversTheRange)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 20000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Stats, GeomeanOfPowers)
{
    Geomean g;
    g.sample(2.0);
    g.sample(8.0);
    EXPECT_NEAR(g.value(), 4.0, 1e-9);
}

TEST(Stats, GeomeanSkipsNonPositive)
{
    Geomean g;
    g.sample(4.0);
    g.sample(0.0);
    g.sample(-1.0);
    EXPECT_EQ(g.count(), 1u);
    EXPECT_NEAR(g.value(), 4.0, 1e-9);
}

TEST(Table, AlignsColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("name    value"), std::string::npos);
    EXPECT_NE(out.find("longer  22"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormattersRound)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.042, 1), "4.2%");
    EXPECT_EQ(fmtPercent(-0.05, 0), "-5%");
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
}

/** A deterministic buffer whose bytes are not all alike. */
std::vector<uint8_t>
patternBytes(size_t n)
{
    std::vector<uint8_t> bytes(n);
    for (size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<uint8_t>(i * 167 + 13);
    return bytes;
}

TEST(PayloadChecksum, KnownAnswers)
{
    // The checksum is part of the stores' on-disk format: these values
    // change only together with both stores' format versions.
    EXPECT_EQ(payloadChecksum({}), 0xc1620d0a2dcaa9d2ull);
    const char *text = "noreba";
    EXPECT_EQ(payloadChecksum({reinterpret_cast<const uint8_t *>(text),
                               std::strlen(text)}),
              0xc1707f5341f88454ull);
    EXPECT_EQ(payloadChecksum(patternBytes(870)), 0x04f1ef979fd5d1e6ull);
}

TEST(PayloadChecksum, EverySingleBitFlipChangesTheSum)
{
    std::vector<uint8_t> bytes = patternBytes(870);
    const uint64_t base = payloadChecksum(bytes);
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            bytes[i] ^= static_cast<uint8_t>(1u << bit);
            ASSERT_NE(payloadChecksum(bytes), base)
                << "byte " << i << " bit " << bit;
            bytes[i] ^= static_cast<uint8_t>(1u << bit);
        }
    }
}

TEST(PayloadChecksum, SwappedWordsChangeTheSum)
{
    const std::vector<uint8_t> bytes = patternBytes(256);
    const uint64_t base = payloadChecksum(bytes);
    auto swapped = [&](size_t a, size_t b) {
        std::vector<uint8_t> out = bytes;
        std::swap_ranges(out.begin() + static_cast<ptrdiff_t>(a),
                         out.begin() + static_cast<ptrdiff_t>(a + 8),
                         out.begin() + static_cast<ptrdiff_t>(b));
        return payloadChecksum(out);
    };
    // Words 0 and 4 share lane 0 (stripes 0 and 1); words 0 and 1 sit
    // in lanes 0 and 1 of one stripe; words 3 and 9 cross both.
    EXPECT_NE(swapped(0, 32), base);
    EXPECT_NE(swapped(0, 8), base);
    EXPECT_NE(swapped(24, 72), base);
}

TEST(PayloadChecksum, EveryShortLengthIsDistinct)
{
    // Lengths 0..70 cover the tail alone, one stripe plus a tail and
    // two stripes plus a tail; zero bytes make only the length differ.
    const std::vector<uint8_t> zeros(70, 0);
    std::set<uint64_t> sums;
    for (size_t n = 0; n <= zeros.size(); ++n)
        sums.insert(payloadChecksum({zeros.data(), n}));
    EXPECT_EQ(sums.size(), zeros.size() + 1);
}

TEST(PayloadChecksum, IncrementalEqualsOneShot)
{
    const std::vector<uint8_t> bytes = patternBytes(870);
    const uint64_t whole = payloadChecksum(bytes);
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        PayloadChecksum sum;
        size_t at = 0;
        while (at < bytes.size()) {
            // Splits of 0..80 bytes: empty parts, parts inside one
            // stripe and parts spanning several.
            const size_t n = std::min<size_t>(rng.below(81),
                                              bytes.size() - at);
            sum.update({bytes.data() + at, n});
            at += n;
        }
        ASSERT_EQ(sum.finish(), whole) << "trial " << trial;
    }
}

} // namespace
} // namespace noreba
