/**
 * @file
 * Figure 1: motivation — performance of NonSpeculative-OoO-C,
 * SpeculativeBR-OoO-C and the fully speculative oracle over in-order
 * commit, on the Skylake-like core with prefetching, C/C++ SPEC subset.
 * Paper result: SpeculativeBR achieves ~86% of the full Speculative
 * oracle, showing that relaxing only the branch condition captures most
 * of the opportunity.
 *
 * The second table re-derives the figure's motivation from the
 * commit-stall attribution counters: for the InO-C baseline it breaks
 * every cycle down by what blocked the commit head — unresolved
 * branches dominating is exactly the observation the paper builds on.
 */

#include <cstdio>

#include "common/table.h"
#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

/** InO-C, the baseline, then the three upper bounds. */
std::vector<Column>
columns()
{
    std::vector<Column> out;
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::NonSpecOoO,
          CommitMode::SpeculativeBR, CommitMode::SpeculativeFull})
        out.push_back({commitModeName(mode), withMode(skylakeConfig(), mode)});
    return out;
}

} // namespace

void
registerFig01Motivation()
{
    ExperimentSpec spec;
    spec.name = "fig01_motivation";
    spec.title = "Figure 1 (motivation)";
    spec.description = "OoO-commit upper bounds over InO-C, Skylake-like "
                       "core, SPEC subset";

    spec.plan = [](ExperimentPlan &plan) {
        planColumns(plan, specWorkloads(), columns());
    };

    spec.report = [](const ExperimentResults &r) {
        const std::vector<std::string> workloads = specWorkloads();
        const std::vector<double> geo =
            printSpeedupTable(r, workloads, "InO-C", seriesOf(columns(), 1));

        double br = geo[1] - 1.0;
        double full = geo[2] - 1.0;
        std::printf("SpeculativeBR captures %.0f%% of the full "
                    "Speculative oracle's improvement (paper: 86%%)\n",
                    full > 0 ? 100.0 * br / full : 0.0);

        // Commit-stall anatomy of the InO-C baseline (% of cycles).
        TextTable anatomy;
        anatomy.setHeader({"benchmark", "full-width", "empty", "branch",
                           "memory", "exec", "fence", "structural"});
        for (const auto &w : workloads) {
            const CoreStats &s = r.at(w, "InO-C");
            auto pct = [&](uint64_t v) {
                return fmtDouble(
                    s.cycles ? 100.0 * static_cast<double>(v) /
                                   static_cast<double>(s.cycles)
                             : 0.0,
                    1);
            };
            anatomy.addRow({w, pct(s.commitWidthFullCycles),
                            pct(s.stallEmptyCycles),
                            pct(s.stallHeadBranchCycles),
                            pct(s.stallHeadMemCycles),
                            pct(s.stallHeadExecCycles),
                            pct(s.stallFenceCycles),
                            pct(s.stallStructuralCycles)});
        }
        std::printf("commit-stall anatomy, InO-C (%% of cycles; rows sum "
                    "to 100)\n%s\n",
                    anatomy.render().c_str());
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
