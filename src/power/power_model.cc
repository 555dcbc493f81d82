#include "power/power_model.h"

#include <cmath>
#include <vector>

#include "isa/setup_encoding.h"

namespace noreba {

namespace {

/** Nominal clock for converting per-access energy to power. */
constexpr double NOMINAL_GHZ = 2.5;
/** Clock/wire/glue overhead multiplier on raw array energies. */
constexpr double OVERHEAD = 2.5;

/** Static parameters of one modelled structure. */
struct StructParams
{
    const char *name;
    double areaMm2;
    double leakW;
    double energyPj; //!< per access
    /** Activity: events charged to this structure for a run. */
    uint64_t (*activity)(const CoreStats &);
};

// CACTI-flavoured first-order constants for a ~14 nm, 2.5 GHz core.
// Each structure names its activity counters directly (compile-time
// checked against CoreStats, no string keys).
const StructParams BASE_STRUCTS[] = {
    {"icache", 1.20, 0.30, 35.0,
     [](const CoreStats &s) { return s.icacheAccesses; }},
    {"bpred", 0.60, 0.16, 8.0,
     // lookup + update
     [](const CoreStats &s) { return 2 * s.bpredLookups; }},
    {"idecode", 0.80, 0.20, 12.0,
     [](const CoreStats &s) { return s.fetched; }},
    {"ialu", 1.00, 0.24, 30.0,
     [](const CoreStats &s) { return s.intAluOps; }},
    {"fpalu", 1.80, 0.40, 80.0,
     [](const CoreStats &s) { return s.fpAluOps; }},
    {"cmplxalu", 0.90, 0.20, 60.0,
     [](const CoreStats &s) { return s.cmplxAluOps; }},
    {"dcache", 2.20, 0.60, 45.0,
     [](const CoreStats &s) {
         return s.dcacheAccesses + 2 * s.l2Accesses + 3 * s.l3Accesses;
     }},
    {"lsu", 0.80, 0.20, 25.0,
     [](const CoreStats &s) { return s.lsqOps + s.dcacheAccesses; }},
    {"rename", 0.50, 0.12, 15.0,
     [](const CoreStats &s) { return s.renameOps; }},
    {"regf", 1.10, 0.28, 10.0,
     [](const CoreStats &s) { return s.rfReads + s.rfWrites; }},
    {"scheduler", 1.00, 0.24, 12.0,
     [](const CoreStats &s) {
         return s.iqWrites + 2 * s.issued + s.cdbBroadcasts;
     }},
    // rob / SELECTIVE ROB handled specially below.
    {"cdb", 0.40, 0.10, 12.0,
     [](const CoreStats &s) { return s.cdbBroadcasts; }},
};

double
dynWatts(uint64_t events, double energyPj, uint64_t cycles)
{
    if (cycles == 0)
        return 0.0;
    double accessesPerCycle =
        static_cast<double>(events) / static_cast<double>(cycles);
    return accessesPerCycle * energyPj * OVERHEAD * NOMINAL_GHZ * 1e-3;
}

} // namespace

double
PowerBreakdown::totalWatts() const
{
    double t = 0.0;
    for (const auto &kv : watts)
        t += kv.second;
    return t;
}

double
PowerBreakdown::totalArea() const
{
    double t = 0.0;
    for (const auto &kv : area)
        t += kv.second;
    return t;
}

const std::vector<std::string> &
powerStructureNames()
{
    static const std::vector<std::string> names = {
        "icache", "bpred", "idecode", "ialu", "fpalu", "cmplxalu",
        "dcache", "lsu", "rename", "regf", "scheduler",
        "rob/SELECTIVE ROB", "cdb", "CQT+BIT+DCT", "CIT",
    };
    return names;
}

PowerBreakdown
computePower(const CoreConfig &cfg, const CoreStats &stats)
{
    PowerBreakdown out;
    const uint64_t cycles = stats.cycles;

    for (const auto &sp : BASE_STRUCTS) {
        uint64_t events = sp.activity(stats);
        out.watts[sp.name] =
            sp.leakW + dynWatts(events, sp.energyPj, cycles);
        out.area[sp.name] = sp.areaMm2;
    }

    const bool selective = cfg.commitMode == CommitMode::Noreba;

    // Reorder buffer. The conventional ROB is a multi-ported RAM whose
    // commit logic scans the head; NOREBA's ROB' is the same capacity
    // but strictly FIFO, with the commit queues appended as small FIFOs
    // (Section 6.2: FIFO queues only marginally increase power).
    {
        double robArea = 0.90 * (cfg.robEntries / 224.0);
        double robLeak = 0.22 * (cfg.robEntries / 224.0);
        double robEnergy = 18.0;
        uint64_t robEvents = stats.robWrites + stats.robReads;
        if (selective) {
            int cqEntries = cfg.srob.numBrCqs * cfg.srob.brCqEntries +
                            cfg.srob.prCqEntries;
            // FIFO pointers instead of a random-access commit scan.
            robEnergy = 14.0;
            double cqEnergy =
                2.0 + 0.4 * std::log2(static_cast<double>(
                                std::max(2, cqEntries)));
            double cqArea = 0.014 * cqEntries;
            double cqLeak = 0.0016 * cqEntries;
            // Very large queue groups pay superlinear wiring/mux cost
            // (the knee Figure 10 shows well beyond the useful sizes).
            if (cqEntries > 96) {
                double x = cqEntries - 96;
                cqLeak += 2.2e-5 * x * x;
                cqArea += 6.0e-5 * x * x;
            }
            out.watts["rob/SELECTIVE ROB"] =
                robLeak + cqLeak +
                dynWatts(robEvents, robEnergy, cycles) +
                dynWatts(stats.cqOps, cqEnergy, cycles);
            out.area["rob/SELECTIVE ROB"] = robArea + cqArea;
        } else {
            out.watts["rob/SELECTIVE ROB"] =
                robLeak + dynWatts(robEvents, robEnergy, cycles);
            out.area["rob/SELECTIVE ROB"] = robArea;
        }
    }

    // NOREBA bookkeeping tables: small direct-mapped RAMs.
    if (selective) {
        double tabLeak =
            0.0012 * (NUM_BRANCH_IDS + CQT_ENTRIES + 1);
        out.watts["CQT+BIT+DCT"] =
            tabLeak + dynWatts(stats.bitOps + stats.dctOps +
                                   stats.cqtOps,
                               1.5, cycles);
        out.area["CQT+BIT+DCT"] =
            0.012 * (NUM_BRANCH_IDS + CQT_ENTRIES + 1);

        out.watts["CIT"] =
            0.0004 * cfg.srob.citEntries +
            dynWatts(stats.citOps + stats.citDrops, 2.5, cycles);
        out.area["CIT"] = 0.0036 * cfg.srob.citEntries;
    } else {
        out.watts["CQT+BIT+DCT"] = 0.0;
        out.area["CQT+BIT+DCT"] = 0.0;
        out.watts["CIT"] = 0.0;
        out.area["CIT"] = 0.0;
    }

    return out;
}

} // namespace noreba
