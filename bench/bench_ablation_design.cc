/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, beyond what the
 * paper evaluates. Rows are Noreba variants; columns are the geomean
 * speedup over InO-C on a representative subset, plus the prior-work
 * baselines (NonSpeculative-OoO and the Validation Buffer of Petit et
 * al., the paper's Table 4 rows).
 *
 *  - instance ordering off: the paper's literal Table 1 (unsound for
 *    same-site loop-carried flows; see EXPERIMENTS.md "Findings");
 *  - CIT sizes: the commit-ahead capacity analysis;
 *  - steer width: the ROB'-head bandwidth;
 *  - single large queue vs paper 2x8: the multi-queue argument of
 *    Section 4.2 (Listing 1);
 *  - prefetcher off: interaction with DCPT (Figure 13 on SKL).
 */

#include <cstdio>

#include "common/table.h"
#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

namespace {

struct Variant
{
    const char *series; //!< result-handle key
    const char *label;  //!< table row label
    void (*tweak)(CoreConfig &);
};

/** The first entry is the default; every row's delta is against it. */
constexpr Variant VARIANTS[] = {
    {"default", "Noreba (default: sound, 2x8 CQs, CIT 128)",
     [](CoreConfig &) {}},
    {"no-instance-order", "no same-site instance ordering (paper Tab.1)",
     [](CoreConfig &c) { c.srob.enforceInstanceOrder = false; }},
    {"cit32", "CIT 32", [](CoreConfig &c) { c.srob.citEntries = 32; }},
    {"cit512", "CIT 512",
     [](CoreConfig &c) { c.srob.citEntries = 512; }},
    {"cit4096", "CIT 4096 (~unbounded)",
     [](CoreConfig &c) { c.srob.citEntries = 4096; }},
    {"steer2", "steer width 2", [](CoreConfig &c) { c.steerWidth = 2; }},
    {"steer8", "steer width 8", [](CoreConfig &c) { c.steerWidth = 8; }},
    {"cq1x16", "one 16-entry BR-CQ (same capacity as 2x8)",
     [](CoreConfig &c) {
         c.srob.numBrCqs = 1;
         c.srob.brCqEntries = 16;
     }},
    {"cq4x16", "4x16 BR-CQs",
     [](CoreConfig &c) {
         c.srob.numBrCqs = 4;
         c.srob.brCqEntries = 16;
     }},
    {"no-pf", "no DCPT prefetcher",
     [](CoreConfig &c) { c.prefetcher = false; }},
};

constexpr CommitMode PRIOR_MODES[] = {
    CommitMode::NonSpecOoO,
    CommitMode::ValidationBuffer,
    CommitMode::IdealReconv,
    CommitMode::SpeculativeBR,
};

std::vector<std::string>
subset()
{
    return selectedWorkloadsOr({"mcf", "CRC32", "libquantum", "omnetpp",
                                "bzip2", "astar", "dijkstra", "bitcount"});
}

} // namespace

void
registerAblationDesign()
{
    ExperimentSpec spec;
    spec.name = "ablation_design";
    spec.title = "Design ablations";
    spec.description = "Noreba variants and prior-work baselines, "
                       "geomean speedup over InO-C on a representative "
                       "subset";

    // One InO-C baseline per workload, then one job per (variant,
    // workload) and (prior mode, workload).
    spec.plan = [](ExperimentPlan &plan) {
        const std::vector<std::string> workloads = subset();
        planColumns(
            plan, workloads,
            {{"InO-C", withMode(skylakeConfig(), CommitMode::InOrder)}});
        for (const Variant &v : VARIANTS) {
            CoreConfig cfg = withMode(skylakeConfig(), CommitMode::Noreba);
            v.tweak(cfg);
            planColumns(plan, workloads, {{v.series, cfg}});
        }
        for (CommitMode mode : PRIOR_MODES)
            planColumns(plan, workloads,
                        {{commitModeName(mode),
                          withMode(skylakeConfig(), mode)}});
    };

    spec.report = [](const ExperimentResults &r) {
        const std::vector<std::string> workloads = subset();
        auto geomeanFor = [&](const std::string &series) {
            return geomeanSpeedup(r, workloads, "InO-C", series);
        };

        TextTable table;
        table.setHeader(
            {"variant", "geomean speedup", "delta vs default"});
        const double base = geomeanFor(VARIANTS[0].series);
        for (const Variant &v : VARIANTS) {
            double value = geomeanFor(v.series);
            table.addRow({v.label, fmtDouble(value, 3),
                          fmtPercent(value / base - 1.0)});
        }
        std::printf("%s\n", table.render().c_str());

        // Prior-work baselines on the same subset.
        TextTable prior;
        prior.setHeader({"baseline (paper Table 4)", "geomean speedup"});
        for (CommitMode mode : PRIOR_MODES)
            prior.addRow({commitModeName(mode),
                          fmtDouble(geomeanFor(commitModeName(mode)),
                                    3)});
        std::printf("%s\n", prior.render().c_str());
        std::printf("Expected: ValidationBuffer <= NonSpeculative-OoO-C "
                    "<< Noreba; CIT and queue sizes saturate near the "
                    "paper's Table 2 values\n");
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
