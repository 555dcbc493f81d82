/**
 * @file
 * Figure 16: per-structure power and area of Noreba versus the
 * in-order-commit baseline (Skylake-like core), normalized to the
 * baseline totals. Paper result: +4% power and ~8% area on average;
 * the Selective ROB's FIFO queues and the small direct-mapped tables
 * (CQT/BIT/DCT, CIT) account for the additions.
 */

#include <cstdio>
#include <map>

#include "common/table.h"
#include "experiments.h"
#include "power/power_model.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

std::vector<Column>
columns()
{
    return {{"InO-C", withMode(skylakeConfig(), CommitMode::InOrder)},
            {"Noreba", withMode(skylakeConfig(), CommitMode::Noreba)}};
}

} // namespace

void
registerFig16PowerArea()
{
    ExperimentSpec spec;
    spec.name = "fig16_power_area";
    spec.title = "Figure 16 (power and area)";
    spec.description = "Per-structure breakdown normalized to the "
                       "in-order baseline, geomean activity over the "
                       "suite";

    spec.plan = [](ExperimentPlan &plan) {
        planColumns(plan, selectedWorkloads(), columns());
    };

    spec.report = [](const ExperimentResults &r) {
        // Per column: per-structure watts averaged over the suite
        // (arithmetic mean of per-workload breakdowns, like McPAT batch
        // reporting) and per-structure area, which activity does not
        // change.
        const std::vector<Column> cols = columns();
        const std::vector<std::string> workloads = selectedWorkloads();
        std::map<std::string, double> watts[2], area[2];
        double totalW[2] = {}, totalA[2] = {};
        for (int c = 0; c < 2; ++c) {
            for (const auto &name : workloads) {
                const PowerBreakdown pb =
                    computePower(cols[c].cfg, r.at(name, cols[c].series));
                for (const auto &s : powerStructureNames()) {
                    watts[c][s] += pb.watts.count(s) ? pb.watts.at(s) : 0.0;
                    area[c][s] = pb.area.count(s) ? pb.area.at(s) : 0.0;
                }
            }
            for (const auto &s : powerStructureNames()) {
                watts[c][s] /= static_cast<double>(workloads.size());
                totalW[c] += watts[c][s];
                totalA[c] += area[c][s];
            }
        }

        TextTable table;
        table.setHeader({"structure", "InO-C W", "NOREBA W",
                         "InO-C mm2", "NOREBA mm2"});
        for (const auto &s : powerStructureNames())
            table.addRow({s, fmtDouble(watts[0][s], 3),
                          fmtDouble(watts[1][s], 3),
                          fmtDouble(area[0][s], 3),
                          fmtDouble(area[1][s], 3)});
        table.addRow({"TOTAL", fmtDouble(totalW[0], 3),
                      fmtDouble(totalW[1], 3), fmtDouble(totalA[0], 3),
                      fmtDouble(totalA[1], 3)});
        std::printf("%s\n", table.render().c_str());

        // What the new structures (CQT+BIT+DCT, CIT) draw under Noreba.
        const double cqt = watts[1]["CQT+BIT+DCT"], cit = watts[1]["CIT"];
        std::printf("power overhead: %s (paper: ~4%%)\n",
                    fmtPercent(totalW[1] / totalW[0] - 1.0).c_str());
        std::printf("  of which the new structures (CQT+BIT+DCT, CIT, "
                    "commit queues): %s\n",
                    fmtPercent((cqt + cit) / totalW[0]).c_str());
        std::printf("  the remainder (+%s) is higher per-cycle "
                    "activity from finishing the same work in fewer "
                    "cycles\n",
                    fmtPercent(totalW[0] > 0 ? (totalW[1] - totalW[0] -
                                                cqt - cit) /
                                                   totalW[0]
                                             : 0.0)
                        .c_str());
        std::printf("area overhead:  %s (paper: ~8%%)\n",
                    fmtPercent(totalA[1] / totalA[0] - 1.0).c_str());
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
