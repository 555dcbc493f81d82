/**
 * @file
 * Figure 7: distribution of critical branches for mcf and bzip2 on the
 * in-order-commit Skylake-like core. x = log10(dynamic instructions
 * dependent on the branch), y = log10(cycles the branch stalled the
 * ROB). Paper result: mcf's branches stall for more cycles with fewer
 * dependents (lots of independent work ready to commit), bzip2's
 * branches have many dependents (nothing to commit early).
 */

#include <cmath>
#include <cstdio>

#include "common/table.h"
#include "experiments.h"

namespace noreba::bench {

namespace {

constexpr const char *WORKLOADS[] = {"mcf", "bzip2"};

void
reportWorkload(const char *name, const CoreStats &s)
{
    std::printf("%s: per-static-branch scatter "
                "(log10(dependents), log10(stall cycles))\n",
                name);
    TextTable table;
    table.setHeader({"branch pc", "instances", "dependents",
                     "stall cycles", "log10(dep)", "log10(stall)"});
    double depSum = 0.0, stallSum = 0.0;
    int points = 0;
    for (const auto &[pc, info] : s.branchStalls) {
        if (info.instances == 0)
            continue;
        double dep = static_cast<double>(info.dependents);
        double stall = static_cast<double>(info.stallCycles);
        if (dep < 1.0 || stall < 1.0)
            continue;
        char pcs[32];
        std::snprintf(pcs, sizeof(pcs), "0x%llx",
                      static_cast<unsigned long long>(pc));
        table.addRow({pcs, std::to_string(info.instances),
                      std::to_string(info.dependents),
                      std::to_string(info.stallCycles),
                      fmtDouble(std::log10(dep), 2),
                      fmtDouble(std::log10(stall), 2)});
        depSum += std::log10(dep);
        stallSum += std::log10(stall);
        ++points;
    }
    std::printf("%s", table.render().c_str());
    if (points) {
        std::printf("centroid: log10(dep)=%.2f log10(stall)=%.2f "
                    "(%d branches)\n\n",
                    depSum / points, stallSum / points, points);
    }
}

} // namespace

void
registerFig07CriticalBranches()
{
    ExperimentSpec spec;
    spec.name = "fig07_critical_branches";
    spec.title = "Figure 7 (critical branches)";
    spec.description = "Stall cycles vs dependent-instruction counts "
                       "for the best case (mcf) and worst case (bzip2)";

    spec.plan = [](ExperimentPlan &plan) {
        CoreConfig cfg = withMode(skylakeConfig(), CommitMode::InOrder);
        cfg.attributeStalls = true;
        planColumns(plan, {std::begin(WORKLOADS), std::end(WORKLOADS)},
                    {{"InO-C", cfg}});
    };

    spec.report = [](const ExperimentResults &r) {
        for (const char *name : WORKLOADS)
            reportWorkload(name, r.at(name, "InO-C"));
        std::printf("Expected shape: mcf branches stall longer per "
                    "dependent instruction than bzip2 branches\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
