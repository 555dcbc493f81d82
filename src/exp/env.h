/**
 * @file
 * Environment knobs shared by every experiment (formerly
 * bench/bench_util.h):
 *   NOREBA_TRACE_LEN   dynamic instructions per workload (default
 *                      250000); must be a positive integer
 *   NOREBA_WORKLOADS   comma-separated subset of workload names; every
 *                      name must exist in workloadRegistry()
 *   NOREBA_JOBS        sweep worker threads (default: hardware cores)
 *   NOREBA_JSON_DIR    when set, experiments also write a
 *                      machine-readable BENCH_<name>.json there
 *   NOREBA_RESULT_DIR  when set, simulation results are served from /
 *                      published to the content-addressed store
 *                      (sim/result_store.h)
 *   NOREBA_EVENT_TRACE when set (and not "0") with NOREBA_JSON_DIR,
 *                      the driver re-simulates each experiment's
 *                      first job after the sweep with an EventLog and
 *                      writes its Chrome trace as TRACE_<name>.json
 */

#ifndef NOREBA_EXP_ENV_H
#define NOREBA_EXP_ENV_H

#include <memory>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/sweep.h"

namespace noreba::benchutil {

/** The non-empty fields of a comma-separated list, in order. */
std::vector<std::string> splitCommas(const std::string &list);

/** NOREBA_TRACE_LEN, defaulting to 250000; non-positive is fatal. */
uint64_t traceLen();

/**
 * Selected workload names (honours NOREBA_WORKLOADS). Unknown names
 * are fatal here, before any trace is built, instead of surfacing as a
 * buildWorkload() failure deep into the sweep — and the error lists
 * *every* unknown name at once, so a long hand-typed list is fixed in
 * one round trip instead of one fatal() per retry.
 */
std::vector<std::string> selectedWorkloads();

/**
 * selectedWorkloads() when NOREBA_WORKLOADS is set (even to an empty
 * value), else `fallback`: the experiment's own default subset.
 */
std::vector<std::string>
selectedWorkloadsOr(std::vector<std::string> fallback);

/** SPEC-suite subset (Figure 1 evaluates SPEC only). */
std::vector<std::string> specWorkloads();

/** Experiment-wide trace options: registry defaults at traceLen(). */
TraceOptions traceOptions(bool annotate = true, bool stripSetups = false);

/**
 * Build (and cache process-wide) the trace bundle for one workload.
 * Backed by the sweep engine's shared two-tier cache, so experiments
 * that mix direct simulate() calls with SweepRunner sweeps materialize
 * each trace once per process (and, with NOREBA_TRACE_DIR set, once
 * per *machine* — later processes start from an mmap of the store).
 */
std::shared_ptr<const TraceBundle>
bundleFor(const std::string &name, bool annotate = true,
          bool stripSetups = false);

/** Pipeline event tracing requested (NOREBA_EVENT_TRACE set, != "0"). */
bool eventTraceEnabled();

/** A sweep job for one workload on one config, at traceLen(). */
SweepJob job(const std::string &workload, const CoreConfig &cfg,
             bool annotate = true, bool stripSetups = false);

} // namespace noreba::benchutil

#endif // NOREBA_EXP_ENV_H
