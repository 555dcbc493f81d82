/**
 * @file
 * Figure 15: commit bandwidth. InO-C++ doubles the in-order commit
 * width to 8; Noreba keeps the baseline width of 4. Paper result:
 * extra commit bandwidth alone does not help a conventional in-order
 * processor — the win comes from committing (and reclaiming) earlier,
 * not wider.
 */

#include <cstdio>

#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

/** InO-C (width 4), the baseline; InO-C++ (width 8); Noreba (width 4). */
std::vector<Column>
columns()
{
    CoreConfig wide = withMode(skylakeConfig(), CommitMode::InOrder);
    wide.commitWidth = 8;
    return {
        {"InO-C", withMode(skylakeConfig(), CommitMode::InOrder)},
        {"InO-C++", wide},
        {"Noreba", withMode(skylakeConfig(), CommitMode::Noreba)},
    };
}

} // namespace

void
registerFig15CommitWidth()
{
    ExperimentSpec spec;
    spec.name = "fig15_commit_width";
    spec.title = "Figure 15 (commit bandwidth)";
    spec.description = "InO-C (width 4), InO-C++ (width 8) and Noreba "
                       "(width 4), normalized to InO-C, Skylake-like "
                       "core";

    spec.plan = [](ExperimentPlan &plan) {
        planColumns(plan, selectedWorkloads(), columns());
    };

    spec.report = [](const ExperimentResults &r) {
        printSpeedupTable(r, selectedWorkloads(), "InO-C",
                          seriesOf(columns(), 1),
                          {"InO-C++ (width 8)", "Noreba (width 4)"});
        std::printf("Expected shape: doubling commit width barely "
                    "moves InO-C, while Noreba gains at the same "
                    "width\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
