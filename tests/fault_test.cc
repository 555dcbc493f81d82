/**
 * @file
 * Tests for the deterministic fault-injection registry: the
 * NOREBA_FAULTS grammar (trigger, count, 'x*', multi-clause plans),
 * per-site hit counting, the I/O shim's errno mapping, kind
 * degradation at non-I/O sites, and fatal rejection of malformed
 * plans.
 */

#include <cerrno>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "store_test_util.h"

using namespace noreba;
using namespace noreba::test;

namespace {

TEST(FaultRegistry, UnarmedSitesNeverFire)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.disarm();
    EXPECT_FALSE(reg.armed());
    EXPECT_FALSE(reg.onHit("some.site").fire);
    int err = 0;
    EXPECT_FALSE(ioFaultAt("some.site", &err));
    EXPECT_EQ(err, 0);
}

TEST(FaultRegistry, DefaultClauseFiresOnFirstHitOnly)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("a.site=throw");
    EXPECT_TRUE(reg.armed());
    FaultAction first = reg.onHit("a.site");
    EXPECT_TRUE(first.fire);
    EXPECT_EQ(first.kind, FaultKind::Throw);
    EXPECT_FALSE(reg.onHit("a.site").fire);
    EXPECT_EQ(reg.hitCount("a.site"), 2u);
}

TEST(FaultRegistry, TriggerAndCountSelectAHitWindow)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("a.site=throw@3x2");
    EXPECT_FALSE(reg.onHit("a.site").fire); // hit 1
    EXPECT_FALSE(reg.onHit("a.site").fire); // hit 2
    EXPECT_TRUE(reg.onHit("a.site").fire);  // hit 3
    EXPECT_TRUE(reg.onHit("a.site").fire);  // hit 4
    EXPECT_FALSE(reg.onHit("a.site").fire); // hit 5
    EXPECT_EQ(reg.hitCount("a.site"), 5u);
}

TEST(FaultRegistry, StarCountFiresForever)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("a.site=eio@2x*");
    EXPECT_FALSE(reg.onHit("a.site").fire);
    for (int i = 0; i < 10; ++i) {
        FaultAction a = reg.onHit("a.site");
        EXPECT_TRUE(a.fire);
        EXPECT_EQ(a.kind, FaultKind::Eio);
    }
}

TEST(FaultRegistry, ClausesAndHitCountsArePerSite)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("a.site=throw;b.site=delay@2");
    EXPECT_TRUE(reg.onHit("a.site").fire);
    // b's counter is independent of a's two hits.
    EXPECT_FALSE(reg.onHit("b.site").fire);
    FaultAction b = reg.onHit("b.site");
    EXPECT_TRUE(b.fire);
    EXPECT_EQ(b.kind, FaultKind::Delay);
    EXPECT_FALSE(reg.onHit("unarmed.site").fire);
    EXPECT_EQ(reg.hitCount("a.site"), 1u);
    EXPECT_EQ(reg.hitCount("b.site"), 2u);
    EXPECT_EQ(reg.hitCount("unarmed.site"), 1u);
}

TEST(FaultRegistry, DisarmResetsHitCounters)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("a.site=throw@2");
    EXPECT_FALSE(reg.onHit("a.site").fire);
    reg.disarm();
    EXPECT_EQ(reg.hitCount("a.site"), 0u);
    // Re-arming starts counting from scratch: the trigger is exact.
    reg.arm("a.site=throw@2");
    EXPECT_FALSE(reg.onHit("a.site").fire);
    EXPECT_TRUE(reg.onHit("a.site").fire);
}

TEST(FaultRegistry, ExecuteThrowsInjectedFaultNamingTheSite)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("a.site=throw");
    try {
        NOREBA_FAULT_SITE("a.site");
        FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &e) {
        EXPECT_EQ(e.site(), std::string("a.site"));
        EXPECT_NE(std::string(e.what()).find("a.site"), std::string::npos);
    }
    // The clause is spent: the site is now a no-op.
    NOREBA_FAULT_SITE("a.site");
}

TEST(FaultRegistry, IoKindsDegradeToThrowAtNonIoSites)
{
    FaultGuard guard;
    FaultRegistry::instance().arm("a.site=short-write");
    EXPECT_THROW(NOREBA_FAULT_SITE("a.site"), InjectedFault);
}

TEST(IoFaultAt, MapsKindsToErrno)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("io.site=eio");
    int err = 0;
    EXPECT_TRUE(ioFaultAt("io.site", &err));
    EXPECT_EQ(err, EIO);
    EXPECT_FALSE(ioFaultAt("io.site", &err)); // clause spent

    reg.arm("io.site=short-write");
    err = 0;
    EXPECT_TRUE(ioFaultAt("io.site", &err));
    EXPECT_EQ(err, ENOSPC);
}

TEST(IoFaultAt, ThrowClausesExecuteInPlace)
{
    FaultGuard guard;
    FaultRegistry::instance().arm("io.site=throw");
    int err = 0;
    EXPECT_THROW(ioFaultAt("io.site", &err), InjectedFault);
    EXPECT_EQ(err, 0);
}

TEST(IoFaultAt, DelayClausesReturnFalse)
{
    FaultGuard guard;
    FaultRegistry::instance().arm("io.site=delay");
    int err = 0;
    // The sleep happens in place; the I/O proceeds normally after.
    EXPECT_FALSE(ioFaultAt("io.site", &err));
    EXPECT_EQ(err, 0);
}

TEST(FaultRegistryDeath, MalformedPlansAreFatal)
{
    EXPECT_EXIT(FaultRegistry::instance().arm("nokind"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("a.site=frobnicate"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("a.site=throw@zero"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("a.site=throw@0"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("a.site=throwx2y"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("=throw"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
}

} // namespace
