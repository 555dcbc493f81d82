/**
 * @file
 * Synthetic workload suite. The paper evaluates the C/C++ subset of
 * SPEC CPU2006 plus MiBench; neither is redistributable, so each
 * benchmark here is a from-scratch IR program named for its paper
 * counterpart and tuned to the branch/load criticality profile the
 * paper reports for it (see DESIGN.md, "Substitutions"):
 *
 *  - mcf-like: long-latency pointer-chase loads feeding branches with
 *    few dependent instructions -> many independent instructions ready
 *    beyond the reconvergence point (paper: best case, up to 2.17x).
 *  - bzip2-like: branchy code whose stalling branches have large
 *    dependent regions and loop-carried state (paper: worst case).
 *  - CRC-like: streaming loop where >20% of dynamic instructions are
 *    independent of the rare data-dependent branch.
 *  - dijkstra-like: relaxation branches on which everything downstream
 *    depends (little to gain).
 *
 * Every generator is deterministic in (seed, scale).
 */

#ifndef NOREBA_WORKLOADS_WORKLOADS_H
#define NOREBA_WORKLOADS_WORKLOADS_H

#include <functional>
#include <string>
#include <vector>

#include "ir/program.h"

namespace noreba {

/** Generation parameters. */
struct WorkloadParams
{
    uint64_t seed = 42;
    /**
     * Scales iteration counts (and therefore trace length). At scale
     * 1.0 the registry programs halt after 389k-1.77M dynamic
     * instructions.
     */
    double scale = 1.0;
};

/** Registry entry for one benchmark. */
struct WorkloadDesc
{
    std::string name;
    std::string suite;    //!< "spec" or "mibench"
    std::string profile;  //!< one-line criticality characterization
    std::function<Program(const WorkloadParams &)> build;
};

/** All workloads, in the order figures print them. */
const std::vector<WorkloadDesc> &workloadRegistry();

/** Build one workload by name (fatal on unknown name). */
Program buildWorkload(const std::string &name,
                      const WorkloadParams &params = {});

/** Names only, in registry order. */
std::vector<std::string> workloadNames();

/** @name Individual generators @{ */
Program buildAstar(const WorkloadParams &);      // SPEC 473.astar
Program buildBzip2(const WorkloadParams &);      // SPEC 401.bzip2
Program buildGcc(const WorkloadParams &);        // SPEC 403.gcc
Program buildGobmk(const WorkloadParams &);      // SPEC 445.gobmk
Program buildH264ref(const WorkloadParams &);    // SPEC 464.h264ref
Program buildHmmer(const WorkloadParams &);      // SPEC 456.hmmer
Program buildLbm(const WorkloadParams &);        // SPEC 470.lbm
Program buildLibquantum(const WorkloadParams &); // SPEC 462.libquantum
Program buildMcf(const WorkloadParams &);        // SPEC 429.mcf
Program buildMilc(const WorkloadParams &);       // SPEC 433.milc
Program buildOmnetpp(const WorkloadParams &);    // SPEC 471.omnetpp
Program buildSjeng(const WorkloadParams &);      // SPEC 458.sjeng
Program buildSoplex(const WorkloadParams &);     // SPEC 450.soplex
Program buildXalancbmk(const WorkloadParams &);  // SPEC 483.xalancbmk
Program buildCrc32(const WorkloadParams &);      // MiBench CRC32
Program buildDijkstra(const WorkloadParams &);   // MiBench dijkstra
Program buildQsort(const WorkloadParams &);      // MiBench qsort
Program buildSha(const WorkloadParams &);        // MiBench sha
Program buildStringsearch(const WorkloadParams &); // MiBench stringsearch
Program buildBitcount(const WorkloadParams &);   // MiBench bitcount
/** @} */

} // namespace noreba

#endif // NOREBA_WORKLOADS_WORKLOADS_H
