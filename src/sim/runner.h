/**
 * @file
 * End-to-end driver: workload -> NOREBA compiler pass -> functional
 * trace -> misprediction precompute -> cycle-level simulation. Traces
 * are built once per workload and shared across every core config and
 * commit policy, so cross-policy comparisons see identical instruction
 * and branch streams.
 */

#ifndef NOREBA_SIM_RUNNER_H
#define NOREBA_SIM_RUNNER_H

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "compiler/branch_dep.h"
#include "interp/trace.h"
#include "uarch/config.h"
#include "uarch/stats.h"
#include "workloads/workloads.h"

namespace noreba {

class MappedTraceBundle;

/** Trace-preparation options. */
struct TraceOptions
{
    WorkloadParams params;
    uint64_t maxDynInsts = 400000;
    bool annotate = true; //!< run the NOREBA pass + setup insertion

    /**
     * Remove setup instructions from the trace while keeping the guard
     * information — the "perfect design that does not require the use
     * of setup instructions" of Figure 11.
     */
    bool stripSetups = false;
};

/**
 * A prepared, simulate-ready trace. Backed either by the in-memory
 * `trace` it was built into, or — when it came out of the on-disk
 * trace store — by a memory-mapped bundle file (`mapped`); view()
 * hides the difference from every consumer.
 */
struct TraceBundle
{
    std::string workload;
    TraceOptions opts;         //!< what it was prepared with (store key)
    DynamicTrace trace;        //!< owning storage when built in-process
    /** Owning mapping when loaded from the store (trace stays empty). */
    std::shared_ptr<const MappedTraceBundle> mapped;
    /** Per-record misprediction verdicts when built in-process. */
    std::vector<uint8_t> misp;
    PassResult pass;           //!< compiler pass report
    uint64_t checksum = 0;     //!< architectural result checksum

    /** Read interface over whichever backing this bundle has. */
    TraceView view() const;

    /** Misprediction verdicts from whichever backing this bundle has
     *  (a bundle loaded from the store leaves `misp` empty). */
    const std::vector<uint8_t> &mispredictions() const;
};

/** Build (workload -> pass -> interpret -> predict) one bundle. */
TraceBundle prepareTrace(const std::string &workload,
                         const TraceOptions &opts = {});

/**
 * Remove setup records from a trace, remapping every guardIdx to the
 * stripped numbering (TraceOptions::stripSetups uses this; exposed for
 * direct use and testing).
 */
DynamicTrace stripSetupRecords(const TraceView &in);

class CoreObserver;

/**
 * Simulate a prepared bundle on one core configuration, reporting to
 * @p observer when one is given (an EventLog traces the run). The
 * stats do not depend on the observer.
 */
CoreStats simulate(const CoreConfig &cfg, const TraceBundle &bundle,
                   CoreObserver *observer = nullptr);

/**
 * Speedup helper: cycles(baseline) / cycles(candidate), the paper's
 * performance metric (all runs replay the same trace). A zero-cycle
 * run is a simulator bug, not an infinitely slow candidate — panic
 * instead of feeding a silently wrong datapoint into a geomean.
 */
inline double
speedup(const CoreStats &baseline, const CoreStats &candidate)
{
    panic_if(baseline.cycles == 0 || candidate.cycles == 0,
             "speedup() on a zero-cycle run (baseline %llu, candidate "
             "%llu cycles)",
             static_cast<unsigned long long>(baseline.cycles),
             static_cast<unsigned long long>(candidate.cycles));
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(candidate.cycles);
}

} // namespace noreba

#endif // NOREBA_SIM_RUNNER_H
