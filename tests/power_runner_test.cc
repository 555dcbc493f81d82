/**
 * @file
 * Tests for the power/area model (Figure 16 inputs) and the end-to-end
 * runner (trace bundles, setup stripping, determinism).
 */

#include <gtest/gtest.h>

#include "power/power_model.h"
#include "sim/runner.h"

namespace noreba {
namespace {

TraceBundle
mcfBundle()
{
    TraceOptions opts;
    opts.maxDynInsts = 40000;
    return prepareTrace("mcf", opts);
}

TEST(Power, BreakdownCoversEveryStructure)
{
    TraceBundle b = mcfBundle();
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    CoreStats s = simulate(cfg, b);
    PowerBreakdown pb = computePower(cfg, s);
    for (const auto &name : powerStructureNames()) {
        ASSERT_TRUE(pb.watts.count(name)) << name;
        EXPECT_GE(pb.watts.at(name), 0.0) << name;
    }
    EXPECT_GT(pb.totalWatts(), 1.0);
    EXPECT_GT(pb.totalArea(), 5.0);
}

TEST(Power, NorebaStructuresVanishOnBaseline)
{
    TraceBundle b = mcfBundle();
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::InOrder;
    CoreStats s = simulate(cfg, b);
    PowerBreakdown pb = computePower(cfg, s);
    EXPECT_EQ(pb.watts.at("CQT+BIT+DCT"), 0.0);
    EXPECT_EQ(pb.watts.at("CIT"), 0.0);
    EXPECT_EQ(pb.area.at("CIT"), 0.0);
}

TEST(Power, OverheadWithinPaperBand)
{
    TraceBundle b = mcfBundle();
    CoreConfig ino = skylakeConfig();
    ino.commitMode = CommitMode::InOrder;
    PowerBreakdown pIno = computePower(ino, simulate(ino, b));

    CoreConfig nor = skylakeConfig();
    nor.commitMode = CommitMode::Noreba;
    PowerBreakdown pNor = computePower(nor, simulate(nor, b));

    double powerOverhead =
        pNor.totalWatts() / pIno.totalWatts() - 1.0;
    double areaOverhead = pNor.totalArea() / pIno.totalArea() - 1.0;
    // Paper: ~4% power, ~8% area (suite averages; Figure 16). This
    // checks a single high-gain workload, where the higher per-cycle
    // activity of finishing sooner dominates, so the band is wider.
    EXPECT_GT(powerOverhead, 0.0);
    EXPECT_LT(powerOverhead, 0.25);
    EXPECT_GT(areaOverhead, 0.02);
    EXPECT_LT(areaOverhead, 0.15);
}

TEST(Power, QueuePowerGrowsSuperlinearlyWhenHuge)
{
    TraceBundle b = mcfBundle();
    auto powerAt = [&](int nq, int entries) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = CommitMode::Noreba;
        cfg.srob.numBrCqs = nq;
        cfg.srob.brCqEntries = entries;
        cfg.srob.prCqEntries = entries;
        return computePower(cfg, simulate(cfg, b)).totalWatts();
    };
    double small = powerAt(2, 8);
    double medium = powerAt(4, 16);
    double huge = powerAt(8, 64);
    EXPECT_LT(small, medium);
    // The Figure 10 knee: the step to very large groups costs much
    // more than the step to medium ones.
    EXPECT_GT(huge - medium, 2.0 * (medium - small));
}

TEST(Runner, BundleCarriesPassAndPredictorData)
{
    TraceBundle b = mcfBundle();
    EXPECT_EQ(b.workload, "mcf");
    EXPECT_GT(b.pass.numMarkedBranches, 0);
    EXPECT_EQ(b.mispredictions().size(), b.trace.size());
    EXPECT_GT(b.trace.setupInsts, 0u);
}

TEST(Runner, StripSetupsKeepsGuardsAndWork)
{
    TraceOptions with;
    with.maxDynInsts = 30000;
    TraceBundle a = prepareTrace("mcf", with);

    TraceOptions strip = with;
    strip.stripSetups = true;
    TraceBundle b = prepareTrace("mcf", strip);

    EXPECT_EQ(b.trace.setupInsts, 0u);
    EXPECT_EQ(a.trace.dynInsts, b.trace.dynInsts);
    EXPECT_EQ(a.checksum, b.checksum);

    // Guard info survives the strip: same number of guarded records,
    // and every guard still points at an older branch record.
    auto countGuarded = [](const DynamicTrace &t) {
        uint64_t n = 0;
        for (const auto &rec : t)
            n += rec.guardIdx != TRACE_NONE;
        return n;
    };
    EXPECT_EQ(countGuarded(a.trace), countGuarded(b.trace));
    for (size_t i = 0; i < b.trace.size(); ++i) {
        TraceIdx g = b.trace[i].guardIdx;
        if (g != TRACE_NONE) {
            ASSERT_LT(g, static_cast<TraceIdx>(i));
            EXPECT_TRUE(b.trace[static_cast<size_t>(g)]
                            .isBranchSite());
        }
    }
}

TEST(Runner, StrippedTraceIsFasterUnderNoreba)
{
    TraceOptions with;
    with.maxDynInsts = 30000;
    TraceBundle a = prepareTrace("dijkstra", with);
    TraceOptions strip = with;
    strip.stripSetups = true;
    TraceBundle b = prepareTrace("dijkstra", strip);

    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    CoreStats sWith = simulate(cfg, a);
    CoreStats sPerfect = simulate(cfg, b);
    EXPECT_LE(sPerfect.cycles, sWith.cycles);
}

TEST(Runner, SimulateIsDeterministic)
{
    TraceBundle b = mcfBundle();
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    CoreStats s1 = simulate(cfg, b);
    CoreStats s2 = simulate(cfg, b);
    EXPECT_EQ(s1.cycles, s2.cycles);
    EXPECT_EQ(s1.committedOoO, s2.committedOoO);
}

TEST(Runner, SpeedupHelper)
{
    CoreStats a, b;
    a.cycles = 200;
    b.cycles = 100;
    EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
}

} // namespace
} // namespace noreba
