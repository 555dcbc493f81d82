/**
 * @file
 * Figure 9: performance of Selective ROB configurations (number of
 * BR-CQs x entries per CQ) for ROB' sizes 224 and 128, normalized to
 * the Ideal Reconvergence-OoO-C processor with the same ROB size.
 * Paper result: performance saturates at 2 BR-CQs with 8 entries each,
 * reaching ~99% of the ideal implementation.
 *
 * Runs a representative subset (one per behaviour class) to keep the
 * sweep tractable; override with NOREBA_WORKLOADS to run more.
 */

#include <cstdio>

#include "common/table.h"
#include "experiments.h"

namespace noreba::bench {

namespace {

constexpr int ROB_SIZES[] = {224, 128};
constexpr int NUM_CQS[] = {1, 2, 4};
constexpr int ENTRIES[] = {4, 8, 16, 32};

std::string
idealSeries(int rob)
{
    return "rob" + std::to_string(rob) + "/ideal";
}

std::string
pointSeries(int rob, int nq, int ent)
{
    return "rob" + std::to_string(rob) + "/cq" + std::to_string(nq) +
           "x" + std::to_string(ent);
}

} // namespace

void
registerFig09CqSweepPerf()
{
    ExperimentSpec spec;
    spec.name = "fig09_cq_sweep_perf";
    spec.title = "Figure 9 (Selective ROB sizing)";
    spec.description = "Geomean performance vs Ideal "
                       "Reconvergence-OoO-C of the same ROB' size";

    // Whole sweep as one plan: per ROB size, the ideal baseline for
    // every workload followed by every (numCqs x entries x workload)
    // Selective ROB point.
    spec.plan = [](ExperimentPlan &plan) {
        const std::vector<std::string> workloads = cqSweepWorkloads();
        for (int rob : ROB_SIZES) {
            CoreConfig cfg = skylakeConfig();
            cfg.robEntries = rob;
            planColumns(plan, workloads,
                        {{idealSeries(rob),
                          withMode(cfg, CommitMode::IdealReconv)}});
            cfg.commitMode = CommitMode::Noreba;
            for (int nq : NUM_CQS) {
                for (int ent : ENTRIES) {
                    cfg.srob.numBrCqs = nq;
                    cfg.srob.brCqEntries = ent;
                    cfg.srob.prCqEntries = ent;
                    planColumns(plan, workloads,
                                {{pointSeries(rob, nq, ent), cfg}});
                }
            }
        }
    };

    spec.report = [](const ExperimentResults &r) {
        const std::vector<std::string> workloads = cqSweepWorkloads();
        for (int rob : ROB_SIZES) {
            std::printf("ROB' = %d entries\n", rob);
            TextTable table;
            table.setHeader({"config", "4-entry CQs", "8-entry CQs",
                             "16-entry CQs", "32-entry CQs"});
            for (int nq : NUM_CQS) {
                std::vector<std::string> row{
                    std::to_string(nq) + " BR-CQ" + (nq > 1 ? "s" : "")};
                for (int ent : ENTRIES) {
                    const double geo =
                        geomeanSpeedup(r, workloads, idealSeries(rob),
                                       pointSeries(rob, nq, ent));
                    row.push_back(fmtDouble(geo, 3));
                }
                table.addRow(row);
            }
            std::printf("%s\n", table.render().c_str());
        }
        std::printf("Expected shape: saturation around 2 BR-CQs x 8 "
                    "entries (paper: 99%% of ideal at 2x8)\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
