/**
 * @file
 * Aggregate statistics for one core run, including the per-structure
 * activity counts the power model consumes (Figure 16) and the
 * per-branch stall attribution behind Figure 7.
 *
 * The counters are declared once, in the NOREBA_CORE_STATS_FIELDS
 * X-macro below, which is also the single source of truth for field
 * enumeration: serialization (sim/sweep.cc statsToJson) walks the
 * generated CORE_STATS_FIELDS descriptor table instead of hand-listing
 * every member, so adding a counter here is the whole change.
 */

#ifndef NOREBA_UARCH_STATS_H
#define NOREBA_UARCH_STATS_H

#include <cstdint>
#include <unordered_map>

namespace noreba {

/** Per-static-branch stall attribution (Figure 7). */
struct BranchStall
{
    uint64_t stallCycles = 0; //!< cycles this branch blocked commit
    uint64_t instances = 0;   //!< dynamic executions
    uint64_t dependents = 0;  //!< dynamic instructions marked dependent
};

/**
 * The CoreStats field table. C(name, doc) declares a raw uint64_t
 * counter; D(name, doc) a derived value computed by the CoreStats
 * accessor of the same name. The order here is the serialization
 * order.
 */
#define NOREBA_CORE_STATS_FIELDS(C, D)                                    \
    /* headline */                                                        \
    C(cycles, "total simulated cycles")                                   \
    C(committedInsts, "architectural commits (setup excluded)")           \
    D(ipc, "committedInsts / cycles")                                     \
    C(committedOoO, "committed past an unresolved branch")                \
    C(committedAhead, "committed past the in-order frontier")             \
    D(oooCommitFraction, "committedOoO / committedInsts")                 \
    /* front end */                                                       \
    C(fetched, "instructions through fetch")                              \
    C(setupFetched, "setup instructions through fetch")                   \
    C(citDrops, "re-fetched already-committed insts")                     \
    C(icacheStallCycles, "fetch cycles lost to L1I misses")               \
    /* speculation */                                                     \
    C(branches, "resolved branch instances")                              \
    C(mispredicts, "mispredicted branch instances")                       \
    C(squashes, "pipeline squashes")                                      \
    C(squashedInsts, "uncommitted instructions squashed")                 \
    /* back end */                                                        \
    C(dispatched, "instructions renamed into the window")                 \
    C(issued, "instructions issued to FUs")                               \
    C(windowFullCycles, "dispatch blocked on ROB/window")                 \
    /* commit-stall attribution (one cause per stall cycle) */            \
    C(commitStallCycles, "cycles with unused commit width")               \
    C(stallEmptyCycles, "... window empty (front end starved)")           \
    C(stallHeadBranchCycles, "... head is an unresolved branch")          \
    C(stallHeadMemCycles, "... head memory op awaits its check")          \
    C(stallHeadExecCycles, "... head still executing")                    \
    C(stallFenceCycles, "... head held behind a fence")                   \
    C(stallStructuralCycles, "... SROB/CQT/CQ/CIT structural limit")      \
    C(commitWidthFullCycles, "cycles retiring at full commit width")      \
    C(steerStallCycles, "Noreba ROB' head blocked")                       \
    C(steerStallTlb, "... on the in-order TLB check")                     \
    C(steerStallCqt, "... on a full CQT")                                 \
    C(steerStallCqFull, "... on a full commit queue")                     \
    C(citFullStalls, "OoO commit blocked on CIT")                         \
    /* structure activity (power model inputs) */                         \
    C(rfReads, "register file reads")                                     \
    C(rfWrites, "register file writes")                                   \
    C(iqWrites, "issue queue insertions")                                 \
    C(robWrites, "ROB allocations")                                       \
    C(robReads, "ROB commit reads")                                       \
    C(lsqOps, "load/store queue operations")                              \
    C(bpredLookups, "branch predictor lookups")                           \
    C(icacheAccesses, "L1I accesses")                                     \
    C(dcacheAccesses, "L1D accesses")                                     \
    C(l2Accesses, "L2 accesses")                                          \
    C(l3Accesses, "L3 accesses")                                          \
    C(intAluOps, "integer ALU/branch operations")                         \
    C(fpAluOps, "floating-point operations")                              \
    C(cmplxAluOps, "integer multiply/divide operations")                  \
    C(renameOps, "rename table operations")                               \
    C(cdbBroadcasts, "common data bus broadcasts")                        \
    C(bitOps, "Branch ID Table reads/writes")                             \
    C(dctOps, "Dependents Counter Table ops")                             \
    C(cqtOps, "Commit Queue Table ops")                                   \
    C(citOps, "CIT allocations + lookups + frees")                        \
    C(cqOps, "commit queue pushes + pops")

struct CoreStats
{
#define NOREBA_STATS_DECLARE_COUNTER(name, doc) uint64_t name = 0;
#define NOREBA_STATS_DECLARE_DERIVED(name, doc)
    NOREBA_CORE_STATS_FIELDS(NOREBA_STATS_DECLARE_COUNTER,
                             NOREBA_STATS_DECLARE_DERIVED)
#undef NOREBA_STATS_DECLARE_COUNTER
#undef NOREBA_STATS_DECLARE_DERIVED

    /** Per-branch-PC stall attribution (filled when enabled). */
    std::unordered_map<uint64_t, BranchStall> branchStalls;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    oooCommitFraction() const
    {
        return committedInsts ? static_cast<double>(committedOoO) /
                                    static_cast<double>(committedInsts)
                              : 0.0;
    }

    double
    aheadCommitFraction() const
    {
        return committedInsts
                   ? static_cast<double>(committedAhead) /
                         static_cast<double>(committedInsts)
                   : 0.0;
    }
};

/** One serializable CoreStats field: a counter or a derived value. */
struct CoreStatsField
{
    const char *name;
    const char *doc;
    /** Counter member, or nullptr for a derived field. */
    uint64_t CoreStats::*counter;
    /** Derived accessor, or nullptr for a counter. */
    double (*derived)(const CoreStats &);
};

/** Every serialized field, in serialization order. */
inline constexpr CoreStatsField CORE_STATS_FIELDS[] = {
#define NOREBA_STATS_TABLE_COUNTER(n, d)                                  \
    {#n, d, &CoreStats::n, nullptr},
#define NOREBA_STATS_TABLE_DERIVED(n, d)                                  \
    {#n, d, nullptr,                                                      \
     [](const CoreStats &s) -> double { return s.n(); }},
    NOREBA_CORE_STATS_FIELDS(NOREBA_STATS_TABLE_COUNTER,
                             NOREBA_STATS_TABLE_DERIVED)
#undef NOREBA_STATS_TABLE_COUNTER
#undef NOREBA_STATS_TABLE_DERIVED
};

} // namespace noreba

#endif // NOREBA_UARCH_STATS_H
