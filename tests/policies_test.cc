/**
 * @file
 * Parameterized cross-policy integration tests over a representative
 * workload subset: completion invariants, the performance orderings
 * that Figures 1/6 depend on, and per-policy sanity bounds.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/runner.h"
#include "uarch/branch_predictor.h"

namespace noreba {
namespace {

struct PreparedWorkload
{
    TraceBundle bundle;
    std::map<CommitMode, CoreStats> stats;
};

const std::vector<std::string> &
subset()
{
    static const std::vector<std::string> names = {
        "mcf", "CRC32", "bzip2", "dijkstra", "libquantum", "astar"};
    return names;
}

const PreparedWorkload &
preparedFor(const std::string &name)
{
    static std::map<std::string, PreparedWorkload> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        PreparedWorkload pw;
        TraceOptions opts;
        opts.maxDynInsts = 60000;
        pw.bundle = prepareTrace(name, opts);
        for (CommitMode mode :
             {CommitMode::InOrder, CommitMode::NonSpecOoO,
              CommitMode::Noreba, CommitMode::IdealReconv,
              CommitMode::SpeculativeBR, CommitMode::SpeculativeFull}) {
            CoreConfig cfg = skylakeConfig();
            cfg.commitMode = mode;
            pw.stats[mode] = simulate(cfg, pw.bundle);
        }
        it = cache.emplace(name, std::move(pw)).first;
    }
    return it->second;
}

class PolicySuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicySuite, EveryPolicyRetiresTheWholeTrace)
{
    const PreparedWorkload &pw = preparedFor(GetParam());
    for (const auto &[mode, s] : pw.stats) {
        EXPECT_EQ(s.committedInsts, pw.bundle.trace.dynInsts)
            << commitModeName(mode);
        EXPECT_GT(s.cycles, 0u);
    }
}

TEST_P(PolicySuite, InOrderIsTheSlowestNonTrivially)
{
    const PreparedWorkload &pw = preparedFor(GetParam());
    uint64_t ino = pw.stats.at(CommitMode::InOrder).cycles;
    for (const auto &[mode, s] : pw.stats) {
        // Allow 2% model noise (store-retirement timing differs).
        EXPECT_LE(s.cycles, ino + ino / 50) << commitModeName(mode);
    }
}

TEST_P(PolicySuite, NorebaBoundedByIdealReconvergence)
{
    const PreparedWorkload &pw = preparedFor(GetParam());
    uint64_t nor = pw.stats.at(CommitMode::Noreba).cycles;
    uint64_t ideal = pw.stats.at(CommitMode::IdealReconv).cycles;
    EXPECT_GE(nor + nor / 50, ideal);
}

TEST_P(PolicySuite, SpeculativeOraclesAreUpperBounds)
{
    const PreparedWorkload &pw = preparedFor(GetParam());
    uint64_t ideal = pw.stats.at(CommitMode::IdealReconv).cycles;
    uint64_t specBr = pw.stats.at(CommitMode::SpeculativeBR).cycles;
    uint64_t specFull =
        pw.stats.at(CommitMode::SpeculativeFull).cycles;
    EXPECT_LE(specBr, ideal + ideal / 50);
    EXPECT_LE(specFull, specBr + specBr / 50);
}

TEST_P(PolicySuite, OnlyInOrderHasZeroOooCommits)
{
    const PreparedWorkload &pw = preparedFor(GetParam());
    EXPECT_EQ(pw.stats.at(CommitMode::InOrder).committedOoO, 0u);
    double frac =
        pw.stats.at(CommitMode::Noreba).oooCommitFraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
}

TEST_P(PolicySuite, BranchStreamIsPolicyIndependent)
{
    // All policies replay the same trace and predictor verdicts: the
    // misprediction count may differ only through squash re-fetches.
    const PreparedWorkload &pw = preparedFor(GetParam());
    PredictorStats ps =
        summarizeMispredictions(pw.bundle.trace, pw.bundle.mispredictions());
    for (const auto &[mode, s] : pw.stats) {
        EXPECT_GE(s.mispredicts, ps.mispredicts / 2)
            << commitModeName(mode);
    }
}

TEST_P(PolicySuite, StatsAreInternallyConsistent)
{
    const PreparedWorkload &pw = preparedFor(GetParam());
    for (const auto &[mode, s] : pw.stats) {
        EXPECT_GE(s.fetched, s.dispatched) << commitModeName(mode);
        EXPECT_GE(s.dispatched, s.committedInsts)
            << commitModeName(mode);
        EXPECT_GE(s.issued, s.committedInsts - s.squashedInsts - 1)
            << commitModeName(mode);
        EXPECT_LE(s.committedOoO, s.committedInsts);
    }
}

INSTANTIATE_TEST_SUITE_P(RepresentativeWorkloads, PolicySuite,
                         ::testing::ValuesIn(subset()));

/** Core-size sweep (Table 3): bigger cores never lose performance. */
class CoreSizeSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CoreSizeSuite, LargerCoresAreFasterForNoreba)
{
    TraceOptions opts;
    opts.maxDynInsts = 50000;
    TraceBundle bundle = prepareTrace("mcf", opts);
    CoreConfig cfg = configByName(GetParam());
    cfg.commitMode = CommitMode::Noreba;
    CoreStats s = simulate(cfg, bundle);

    CoreConfig nhm = nehalemConfig();
    nhm.commitMode = CommitMode::Noreba;
    CoreStats base = simulate(nhm, bundle);
    EXPECT_LE(s.cycles, base.cycles + base.cycles / 50) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreSizeSuite,
                         ::testing::Values("NHM", "HSW", "SKL"));

} // namespace
} // namespace noreba
