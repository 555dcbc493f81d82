/**
 * @file
 * Unified experiment driver. One binary (bench/noreba_bench.cc) runs
 * any registered experiment:
 *
 *   noreba-bench --list
 *   noreba-bench --run fig06_main --run fig09_cq_sweep_perf
 *   noreba-bench --run all --json-dir out --jobs 4
 *
 * Experiments executed in one process share the global trace-bundle
 * and simulation-result caches, so `--run all` simulates each distinct
 * (workload, trace options, config) exactly once — and, with
 * NOREBA_RESULT_DIR set, a warm rerun simulates nothing at all
 * (simBuilds == 0 in every BENCH_<name>.json). The same store makes a
 * killed run resumable: rerunning it simulates only the jobs whose
 * results were not yet published.
 */

#ifndef NOREBA_EXP_DRIVER_H
#define NOREBA_EXP_DRIVER_H

#include <cstddef>

#include "exp/experiment.h"

namespace noreba::bench {

/** Driver-level resilience knobs (the --keep-going CLI). */
struct RunOptions
{
    /**
     * Isolate per-job failures: a failed job becomes a `failures`
     * record in BENCH_<name>.json instead of aborting the experiment,
     * the remaining jobs (and experiments) still run, and benchMain
     * exits 3. Off: the first failure throws out of runExperiment
     * (exit 1), the historical behaviour.
     */
    bool keepGoing = false;
};

/**
 * Execute one experiment end to end: print its header, run the
 * planned sweep, invoke its report, and, when NOREBA_JSON_DIR is set,
 * write BENCH_<name>.json. With NOREBA_EVENT_TRACE on as well, the
 * first job (if it succeeded) is simulated again with an EventLog
 * attached and its Chrome trace written as TRACE_<name>.json.
 *
 * Returns the number of failed jobs (always 0 unless
 * opts.keepGoing: without it the first failure propagates as an
 * exception). When any job failed, the report callback is skipped —
 * its tables would divide by a failed job's zeroed stats — and the
 * failures are recorded in the JSON instead.
 */
size_t runExperiment(const ExperimentSpec &spec, const RunOptions &opts);

/**
 * The noreba-bench CLI: --list, --run <name|all|comma-list>
 * (repeatable), --json-dir <dir> (sets NOREBA_JSON_DIR), --jobs <n>
 * (sets NOREBA_JOBS), --keep-going. The json directory is created up
 * front; failure to create it is a fast exit 2 before any simulation.
 * Exit codes: 0 all
 * experiments clean, 1 an experiment failed (no --keep-going), 2
 * usage/setup error, 3 partial failure under --keep-going.
 */
int benchMain(int argc, char **argv);

} // namespace noreba::bench

#endif // NOREBA_EXP_DRIVER_H
