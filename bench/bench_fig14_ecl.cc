/**
 * @file
 * Figure 14: Early Commit of Loads (ECL, after DeSC) on the in-order
 * commit core and on Noreba (Skylake-like). Paper result: ECL alone
 * gives modest gains on InO-C, and the same benefit carries over to
 * Noreba.
 *
 * Reproduction note: our base Noreba already reclaims TLB-checked
 * memory ops at the commit-queue heads (the paper's footnote-1 C1
 * relaxation, which its Section 4.2 steering rule requires), so
 * Noreba+ECL adds nothing on top; the InO-C columns show the ECL
 * effect in isolation.
 */

#include <cstdio>

#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

/** The InO-C baseline, then the three ECL / Noreba columns. */
std::vector<Column>
columns()
{
    auto skl = [](CommitMode mode, bool ecl) {
        CoreConfig cfg = withMode(skylakeConfig(), mode);
        cfg.earlyCommitLoads = ecl;
        return cfg;
    };
    return {
        {"InO-C", skl(CommitMode::InOrder, false)},
        {"InO-C/ECL", skl(CommitMode::InOrder, true)},
        {"Noreba", skl(CommitMode::Noreba, false)},
        {"Noreba/ECL", skl(CommitMode::Noreba, true)},
    };
}

} // namespace

void
registerFig14Ecl()
{
    ExperimentSpec spec;
    spec.name = "fig14_ecl";
    spec.title = "Figure 14 (early commit of loads)";
    spec.description = "ECL on the in-order core and on Noreba, "
                       "Skylake-like core, normalized to plain InO-C";

    spec.plan = [](ExperimentPlan &plan) {
        planColumns(plan, selectedWorkloads(), columns());
    };

    // The InO-C column is the baseline over itself: 1.000 throughout.
    spec.report = [](const ExperimentResults &r) {
        printSpeedupTable(r, selectedWorkloads(), "InO-C",
                          seriesOf(columns()),
                          {"InO-C", "InO-C + ECL", "Noreba",
                           "Noreba + ECL"});
        std::printf("Expected shape: InO-C+ECL modestly above InO-C; "
                    "Noreba well above both (ECL subsumed)\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
