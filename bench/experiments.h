/**
 * @file
 * Registration entry points for the paper's figure/table experiments.
 * Each bench_*.cc file is a thin registrant: it packages one figure's
 * job plan and report into an ExperimentSpec (src/exp/experiment.h)
 * and registers it here. registerAllExperiments() calls every
 * registrant in paper order — explicit calls, because static-init
 * self-registration is silently dropped for unreferenced objects in
 * static libraries — and the noreba-bench driver does the rest.
 */

#ifndef NOREBA_BENCH_EXPERIMENTS_H
#define NOREBA_BENCH_EXPERIMENTS_H

#include "exp/driver.h"
#include "exp/env.h"
#include "exp/experiment.h"

namespace noreba::bench {

/** One column of a figure: its series handle and the config it runs. */
struct Column
{
    std::string series;
    CoreConfig cfg;
};

/**
 * The Selective ROB sweeps' (Figures 9 and 10) default subset, one
 * workload per behaviour class; NOREBA_WORKLOADS overrides it.
 */
std::vector<std::string> cqSweepWorkloads();

/** The series handles of @p columns, from index @p first on. */
std::vector<std::string> seriesOf(const std::vector<Column> &columns,
                                  size_t first = 0);

/** @p cfg with its commit mode set to @p mode. */
CoreConfig withMode(CoreConfig cfg, CommitMode mode);

/**
 * Plan one job per (workload, column) under (workload, column.series),
 * workload-major: every column of the first workload, then the next.
 */
void planColumns(ExperimentPlan &plan,
                 const std::vector<std::string> &workloads,
                 const std::vector<Column> &columns);

/** Geomean over @p workloads of speedup(@p base, @p series). */
double geomeanSpeedup(const ExperimentResults &r,
                      const std::vector<std::string> &workloads,
                      const std::string &base, const std::string &series);

/**
 * Print the speedup of each of @p series over @p base: one row per
 * workload, then a geomean row, under "benchmark" and @p header (the
 * series names when empty). Returns the geomeans, one per series.
 */
std::vector<double>
printSpeedupTable(const ExperimentResults &r,
                  const std::vector<std::string> &workloads,
                  const std::string &base,
                  const std::vector<std::string> &series,
                  std::vector<std::string> header = {});

void registerFig01Motivation();
void registerTab01Events();
void registerTab0203Configs();
void registerFig06Main();
void registerFig07CriticalBranches();
void registerFig08OooFraction();
void registerFig09CqSweepPerf();
void registerFig10CqSweepPower();
void registerFig11SetupOverhead();
void registerFig12CoreSizes();
void registerFig13Prefetching();
void registerFig14Ecl();
void registerFig15CommitWidth();
void registerFig16PowerArea();
void registerAblationDesign();

/** Register every experiment above, in paper order. */
void registerAllExperiments();

} // namespace noreba::bench

#endif // NOREBA_BENCH_EXPERIMENTS_H
