/**
 * @file
 * Figure 13: effectiveness of prefetching on the Noreba core
 * (Nehalem-like), normalized to NHM in-order commit WITH prefetching.
 * Paper result: prefetching makes loads commitable earlier, so OoO
 * commit and prefetching compound.
 */

#include <cstdio>

#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

/** Column order matches the figure; "InO-C/pf" doubles as the
 *  normalizer. */
std::vector<Column>
columns()
{
    auto nhm = [](CommitMode mode, bool prefetcher) {
        CoreConfig cfg = withMode(nehalemConfig(), mode);
        cfg.prefetcher = prefetcher;
        return cfg;
    };
    return {
        {"InO-C/no-pf", nhm(CommitMode::InOrder, false)},
        {"Noreba/no-pf", nhm(CommitMode::Noreba, false)},
        {"InO-C/pf", nhm(CommitMode::InOrder, true)},
        {"Noreba/pf", nhm(CommitMode::Noreba, true)},
    };
}

} // namespace

void
registerFig13Prefetching()
{
    ExperimentSpec spec;
    spec.name = "fig13_prefetching";
    spec.title = "Figure 13 (prefetching)";
    spec.description = "InO-C / Noreba with and without DCPT on the "
                       "Nehalem-like core, normalized to InO-C + "
                       "prefetch";

    spec.plan = [](ExperimentPlan &plan) {
        planColumns(plan, selectedWorkloads(), columns());
    };

    spec.report = [](const ExperimentResults &r) {
        printSpeedupTable(r, selectedWorkloads(), "InO-C/pf",
                          seriesOf(columns()),
                          {"InO-C no-pf", "Noreba no-pf", "InO-C + pf",
                           "Noreba + pf"});
        std::printf("Expected shape: Noreba+prefetch > InO-C+prefetch "
                    "> Noreba-alone > InO-C-alone (geomean)\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
