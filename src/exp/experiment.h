/**
 * @file
 * Declarative experiment registry. Each paper figure/table is one
 * ExperimentSpec: a name, a header, a *plan* callback that enumerates
 * the simulations it needs under named (row, series) handles, and a
 * *report* callback that renders tables from the results by handle —
 * no `results[w * (1 + NCOLS)]` index math, no per-figure main().
 *
 * The unified driver (exp/driver.h) executes specs: it runs the
 * planned jobs through one SweepRunner (sharing the process-wide trace
 * and result caches across experiments, so `--run all` simulates each
 * distinct job once), hands the results back to report, and emits the
 * machine-readable BENCH_<name>.json record.
 */

#ifndef NOREBA_EXP_EXPERIMENT_H
#define NOREBA_EXP_EXPERIMENT_H

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.h"

namespace noreba::bench {

/** One planned simulation, addressable as (row, series). */
struct PlannedJob
{
    std::string row;    //!< typically the workload name
    std::string series; //!< typically the config/mode column
    SweepJob job;
};

/**
 * The simulations one experiment needs, in submission order (which is
 * also the order of the records in BENCH_<name>.json). Handles must be
 * unique; a reducer that wants one simulation under two names reads
 * the same handle twice.
 */
class ExperimentPlan
{
  public:
    /** Append a job under (row, series). Duplicate handles are fatal. */
    void add(const std::string &row, const std::string &series,
             SweepJob job);

    const std::vector<PlannedJob> &planned() const { return planned_; }

  private:
    std::vector<PlannedJob> planned_;
    std::set<std::pair<std::string, std::string>> used_;
};

/** The executed plan: every planned job's CoreStats, by handle. */
class ExperimentResults
{
  public:
    ExperimentResults(const std::vector<PlannedJob> &plan,
                      std::vector<SweepResult> results);

    /** Stats for one handle; an unknown handle is fatal. */
    const CoreStats &at(const std::string &row,
                        const std::string &series) const;

  private:
    std::vector<SweepResult> results_;
    std::map<std::pair<std::string, std::string>, size_t> index_;
};

/** One reproducible figure/table. */
struct ExperimentSpec
{
    std::string name;        //!< CLI name, e.g. "fig06_main"
    std::string title;       //!< header line, e.g. "Figure 6: ..."
    std::string description; //!< one-line summary under the title
    /** Enumerate the simulations this experiment needs. May be empty
     *  (config-table experiments simulate nothing). */
    std::function<void(ExperimentPlan &)> plan;
    /** Render the experiment's tables. Runs after the sweep; may also
     *  do non-sweep work (interpreter demos, power models). */
    std::function<void(const ExperimentResults &)> report;
};

/**
 * Register one experiment. Registration order is display/run order
 * (`--list`, `--run all`); duplicate names are fatal. Registration is
 * explicit — bench/experiments.cc calls each registrant in paper
 * order — rather than static-initializer self-registration, which the
 * linker silently drops for unreferenced objects in static libraries.
 */
void registerExperiment(ExperimentSpec spec);

/** All registered experiments, in registration order. */
const std::vector<ExperimentSpec> &experimentRegistry();

/** Lookup by CLI name; null when unknown. */
const ExperimentSpec *findExperiment(const std::string &name);

} // namespace noreba::bench

#endif // NOREBA_EXP_EXPERIMENT_H
