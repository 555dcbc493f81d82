/** @file Unit tests for the common utilities (rng, stats, tables). */

#include <gtest/gtest.h>

#include <set>

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

TEST(Stats, GeomeanHelper)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
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

} // namespace
} // namespace noreba
