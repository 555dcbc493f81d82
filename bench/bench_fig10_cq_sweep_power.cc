/**
 * @file
 * Figure 10: power of the Selective ROB configurations of Figure 9,
 * normalized to the minimum configuration (1 BR-CQ x 4 entries).
 * Paper result: the FIFO queues keep power nearly flat across useful
 * sizes; it only grows to prohibitive values for configurations far
 * beyond what performance needs.
 */

#include <cstdio>

#include "common/stats.h"
#include "common/table.h"
#include "experiments.h"
#include "power/power_model.h"

namespace noreba::bench {

namespace {

constexpr int NUM_CQS[] = {1, 2, 4, 8};
constexpr int ENTRIES[] = {4, 8, 16, 32, 64};

CoreConfig
pointConfig(int nq, int ent)
{
    CoreConfig cfg = withMode(skylakeConfig(), CommitMode::Noreba);
    cfg.srob.numBrCqs = nq;
    cfg.srob.brCqEntries = ent;
    cfg.srob.prCqEntries = ent;
    return cfg;
}

std::string
pointSeries(int nq, int ent)
{
    return "cq" + std::to_string(nq) + "x" + std::to_string(ent);
}

} // namespace

void
registerFig10CqSweepPower()
{
    ExperimentSpec spec;
    spec.name = "fig10_cq_sweep_power";
    spec.title = "Figure 10 (Selective ROB power)";
    spec.description = "Total power of Selective ROB configurations, "
                       "normalized to the minimum (1 BR-CQ x 4 entries)";

    // Each point is planned once; the (1, 4) minimum's handles serve
    // both the normalizer and its own table cell.
    spec.plan = [](ExperimentPlan &plan) {
        for (int nq : NUM_CQS)
            for (int ent : ENTRIES)
                planColumns(plan, cqSweepWorkloads(),
                            {{pointSeries(nq, ent), pointConfig(nq, ent)}});
    };

    spec.report = [](const ExperimentResults &r) {
        auto avgPower = [&](int nq, int ent) {
            Geomean geo;
            const CoreConfig cfg = pointConfig(nq, ent);
            for (const auto &name : cqSweepWorkloads())
                geo.sample(
                    computePower(cfg, r.at(name, pointSeries(nq, ent)))
                        .totalWatts());
            return geo.value();
        };

        double minPower = avgPower(1, 4);
        TextTable table;
        table.setHeader({"config", "4-entry", "8-entry", "16-entry",
                         "32-entry", "64-entry"});
        for (int nq : NUM_CQS) {
            std::vector<std::string> row{
                std::to_string(nq) + " BR-CQ" + (nq > 1 ? "s" : "")};
            for (int ent : ENTRIES)
                row.push_back(
                    fmtDouble(avgPower(nq, ent) / minPower, 3));
            table.addRow(row);
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Expected shape: near-flat for useful sizes (2x8), "
                    "superlinear growth only for very large queue "
                    "groups\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
