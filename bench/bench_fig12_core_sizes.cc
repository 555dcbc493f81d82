/**
 * @file
 * Figure 12: performance for the three core designs of Table 3
 * (Nehalem-, Haswell- and Skylake-like). Paper result: Noreba's
 * improvement scales with larger cores, just like in-order commit.
 */

#include <cstdio>

#include "common/table.h"
#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

constexpr const char *CORES[] = {"NHM", "HSW", "SKL"};

std::string
series(const char *core, const char *mode)
{
    return std::string(core) + "/" + mode;
}

} // namespace

void
registerFig12CoreSizes()
{
    ExperimentSpec spec;
    spec.name = "fig12_core_sizes";
    spec.title = "Figure 12 (core sizes)";
    spec.description = "Geomean speedup of Noreba over InO-C per core "
                       "design, plus absolute IPC scaling (normalized "
                       "to NHM InO-C)";

    // Per (core, workload): an InO-C and a Noreba job. The NHM InO-C
    // runs double as the cross-core baseline.
    spec.plan = [](ExperimentPlan &plan) {
        for (const char *core : CORES) {
            const CoreConfig cfg = configByName(core);
            planColumns(plan, selectedWorkloads(),
                        {{series(core, "InO-C"),
                          withMode(cfg, CommitMode::InOrder)},
                         {series(core, "Noreba"),
                          withMode(cfg, CommitMode::Noreba)}});
        }
    };

    spec.report = [](const ExperimentResults &r) {
        const std::vector<std::string> workloads = selectedWorkloads();
        TextTable table;
        table.setHeader({"core", "InO-C vs NHM InO-C",
                         "Noreba vs NHM InO-C", "Noreba vs own InO-C"});
        auto geo = [&](const std::string &base, const std::string &s) {
            return fmtDouble(geomeanSpeedup(r, workloads, base, s), 3);
        };
        for (const char *core : CORES) {
            const std::string ino = series(core, "InO-C");
            const std::string nor = series(core, "Noreba");
            table.addRow({core, geo("NHM/InO-C", ino),
                          geo("NHM/InO-C", nor), geo(ino, nor)});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Expected shape: both columns grow with core size; "
                    "Noreba keeps its edge on every core\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
