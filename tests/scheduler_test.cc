/**
 * @file
 * Targeted scheduler tests (uarch/core.cc): store-to-load forwarding
 * edge cases for the loads' store-queue walk, and overlapping divides
 * across unpipelined divider units. Each runs as a shadow pair
 * (CoreConfig::shadowChecks); the registry-wide and squash-storm
 * differential runs live in tests/shadow_test.cc.
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace noreba {
namespace {

using testutil::Prepared;
using testutil::prepare;
using testutil::runShadowPair;

/** @name Store-to-load forwarding through the store-queue walk @{ */

/**
 * A store whose byte range straddles a 64-byte (cache-line) boundary,
 * partially overlapped by a narrower load on the far side of the
 * boundary. The walk's byte-overlap test must still match the store,
 * or forwarding silently disappears.
 */
TEST(SchedulerForwarding, PartialOverlapAcrossChunkBoundary)
{
    // Forwarding is only observable while the store is complete but
    // not yet committed: a serial divide chain older than each
    // store/load pair holds in-order commit back long enough for the
    // load to probe an in-flight store (hence CommitMode::InOrder —
    // OoO-commit modes retire the completed store past the divide and
    // close the forwarding window).
    const AliasRegion R = 1;
    uint64_t base = 0;
    Program prog = testutil::countedLoop(
        400,
        [&](IRBuilder &b, Program &pr, int, int) {
            if (base == 0) {
                uint64_t raw = pr.allocGlobal(256);
                base = (raw + 63) & ~63ull; // 64-byte aligned
                b.li(S2, static_cast<int64_t>(base));
                b.li(S5, 0x01234567);
                b.li(S6, 3);
                b.li(S7, 1000003);
            }
            // 8-byte store at +60 covers bytes 60..67, across the
            // line boundary. The 4-byte load at +64 overlaps only its
            // tail.
            b.div(T4, S7, S6)          // commit anchor (12 cycles)
                .addi(S7, T4, 1000003) // ...chained across iterations
                .sd(S5, S2, 60, R)
                .lw(T1, S2, 64, R)
                .add(S5, S5, T1);
        },
        "line-straddle");

    Prepared p = prepare(prog);
    CoreStats s = runShadowPair(p, CommitMode::InOrder,
                                skylakeConfig(), "straddle");
    // Forwarded loads never touch the D-cache: of the 800 memory ops,
    // only the 400 retiring stores (plus noise) may access it. If the
    // straddling store were missed, 400 load accesses join them.
    EXPECT_LT(s.dcacheAccesses, 600u) << "forwarding never happened";
}

/**
 * A load fully overlapped by an older store: issued back-to-back the
 * load first probes the store *incomplete* (blocked — no cache access,
 * no TLB side effects, retries from the ready queue), then forwards
 * once the store's data writes back, while the divide chain keeps the
 * store uncommitted and in the SQ.
 */
TEST(SchedulerForwarding, LoadBlocksOnIncompleteStoreData)
{
    const AliasRegion R = 1;
    uint64_t buf = 0;
    Program prog = testutil::countedLoop(
        300,
        [&](IRBuilder &b, Program &pr, int, int) {
            if (buf == 0) {
                buf = pr.allocGlobal(64);
                b.li(S2, static_cast<int64_t>(buf));
                b.li(S5, 97);
                b.li(S6, 3);
                b.li(S7, 1000003);
            }
            b.div(T4, S7, S6)          // commit anchor (12 cycles)
                .addi(S7, T4, 1000003)
                .sd(S5, S2, 0, R)
                .ld(T1, S2, 0, R) // same bytes: blocked, then forwarded
                .add(S5, S5, T1)
                .andi(S5, S5, 1023)
                .addi(S5, S5, 97);
        },
        "blocked-data");

    Prepared p = prepare(prog);
    CoreStats s = runShadowPair(p, CommitMode::InOrder,
                                skylakeConfig(), "blocked");
    EXPECT_LT(s.dcacheAccesses, 450u) << "forwarding never happened";
    // The divide chain serializes commit: the run must be bound by the
    // 12-cycle divide, proving commit actually waited on it.
    EXPECT_GT(s.cycles, 300u * 12u);
}

/**
 * A store *younger* than the load to the same bytes — and, thanks to
 * per-iteration stride addressing, no older store ever aliases the
 * load. The probe must skip the younger store (age test), so every
 * load goes to the cache.
 */
TEST(SchedulerForwarding, YoungerStoreDoesNotForward)
{
    const AliasRegion R = 1;
    uint64_t buf = 0;
    Program prog = testutil::countedLoop(
        300,
        [&](IRBuilder &b, Program &pr, int, int) {
            if (buf == 0) {
                buf = pr.allocGlobal(300 * 8 + 8);
                b.li(S2, static_cast<int64_t>(buf));
                b.li(S5, 11);
                b.li(S6, 3);
                b.li(S7, 1000003);
            }
            b.div(T4, S7, S6)       // same commit anchor as above, so
                .addi(S7, T4, 1000003) // the store is still in flight
                .slli(T2, T6, 3)    // ...fresh address per iteration
                .add(T2, S2, T2)
                .ld(T1, T2, 0, R)   // older load...
                .sd(S5, T2, 0, R)   // ...younger store, same bytes
                .add(S5, S5, T1)
                .andi(S5, S5, 255);
        },
        "younger-store");

    Prepared p = prepare(prog);
    CoreStats s = runShadowPair(p, CommitMode::NonSpecOoO,
                                skylakeConfig(), "younger");
    // Every load (300) and every retiring store (300) accesses the
    // D-cache: nothing may forward.
    EXPECT_GE(s.dcacheAccesses, 600u);
}
/** @} */

/**
 * Two data-independent divides per iteration share the one unpipelined
 * integer divider (NUM_INT_DIV), so they serialize: each holds the
 * unit for its full latency, and an iteration costs at least two
 * divide latencies.
 */
TEST(DividerUnits, IndependentDividesSerializeOnOneUnit)
{
    constexpr int64_t iters = 400;
    Program prog = testutil::countedLoop(
        iters,
        [&](IRBuilder &b, Program &, int, int) {
            b.li(S2, 1000003)
                .li(S3, 17)
                .li(S4, 2000003)
                .li(S5, 23)
                .div(T0, S2, S3) // chain 1
                .addi(T0, T0, 1000003)
                .mv(S2, T0)
                .div(T1, S4, S5) // chain 2, independent of chain 1
                .addi(T1, T1, 2000003)
                .mv(S4, T1);
        },
        "twodiv");
    Prepared p = prepare(prog);

    // The shadow pair must agree; its stats carry the cycle count.
    CoreStats s = runShadowPair(p, CommitMode::NonSpecOoO,
                                skylakeConfig(), "twodiv");
    EXPECT_GE(s.cycles,
              static_cast<uint64_t>(iters) * 2 * execLatency(Opcode::DIV))
        << "independent divides overlapped on one divider";
}

} // namespace
} // namespace noreba
