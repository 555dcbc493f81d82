/**
 * @file
 * Core configuration, mirroring Table 2 (system configuration) and
 * Table 3 (baseline microarchitectures) of the paper, plus the commit
 * mode selector for the policies compared in Figures 1 and 6.
 */

#ifndef NOREBA_UARCH_CONFIG_H
#define NOREBA_UARCH_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace noreba {

/** Commit-policy selector (Section 6.1). */
enum class CommitMode
{
    InOrder,          //!< conventional in-order commit (InO-C)
    NonSpecOoO,       //!< Bell & Lipasti conditions, collapsing ROB
    Noreba,           //!< Selective ROB + compiler guards (this paper)
    IdealReconv,      //!< compiler guards, ideal ROB, no queue limits
    SpeculativeBR,    //!< oracle: branch condition dropped, no penalty
    SpeculativeFull,  //!< oracle: commit anything completed (Figure 1)
    ValidationBuffer, //!< Petit et al. epochs (paper Table 4 baseline)
};

const char *commitModeName(CommitMode mode);

/** One cache level. */
struct CacheConfig
{
    int sizeBytes = 32 * 1024;
    int ways = 8;
    int lineBytes = 64;
    int latency = 4; //!< total hit latency in cycles
};

/**
 * @name Fixed system parameters (Table 2)
 * Table 2 fixes the pipeline widths, functional units, caches and TLB
 * for every experiment in the paper, so they are constants rather
 * than CoreConfig fields. @{
 */
constexpr int FETCH_WIDTH = 4;
constexpr int DECODE_WIDTH = 4;
constexpr int DISPATCH_WIDTH = 4;
constexpr int ISSUE_WIDTH = 4;
constexpr int IFQ_ENTRIES = 32;    //!< instruction fetch queue
constexpr int FETCH_TO_DECODE = 3; //!< front-end depth before decode
constexpr int DECODE_TO_DISPATCH = 2;
constexpr int REDIRECT_PENALTY = 2; //!< extra redirect cycles after resolve

constexpr int NUM_INT_ALU = 4;
constexpr int NUM_INT_MUL = 1;
constexpr int NUM_FP_ALU = 2;
constexpr int NUM_FP_MUL = 2;
constexpr int NUM_INT_DIV = 1; //!< unpipelined integer dividers
constexpr int NUM_FP_DIV = 1;
constexpr int CQT_ENTRIES = 8; //!< Selective ROB Commit Queue Table
constexpr int NUM_LOAD_PORTS = 2;
constexpr int NUM_STORE_PORTS = 1;
constexpr int NUM_BRANCH_UNITS = 2;

constexpr CacheConfig L1I_CACHE{32 * 1024, 8, 64, 4};
constexpr CacheConfig L1D_CACHE{32 * 1024, 8, 64, 4};
constexpr CacheConfig L2_CACHE{256 * 1024, 8, 64, 12};
constexpr CacheConfig L3_CACHE{1024 * 1024, 16, 64, 36};
constexpr int DRAM_LATENCY = 200;
constexpr int TLB_ENTRIES = 1536; //!< STLB-class reach (Skylake ~1.5K)
constexpr int TLB_MISS_PENALTY = 30;
/** @} */

/** Selective ROB parameters (Table 2). The BIT has NUM_BRANCH_IDS
 *  entries, fixed by the ISA's 3-bit BranchID field, and the CQT has
 *  CQT_ENTRIES. */
struct SelectiveRobConfig
{
    int numBrCqs = 2;     //!< number of Branch Commit Queues
    int brCqEntries = 8;  //!< entries per BR-CQ
    int prCqEntries = 8;  //!< Primary Commit Queue entries
    int citEntries = 128; //!< Committed Instructions Table entries

    /**
     * Require dynamic instances of one static branch to retire in
     * order. The paper's single-BranchID marking binds dependents to
     * the *latest* instance only; without this ordering a younger
     * instance can retire (and release its dependents) while an older
     * instance of the same site is still unresolved — an unsoundness
     * the paper does not discuss (found by the dynamic safety checker,
     * tests/safety_checker_test.cc). Disable to model the paper's
     * Table 1 exactly; EXPERIMENTS.md quantifies the cost.
     */
    bool enforceInstanceOrder = true;
};

/** The core parameters the experiments vary. */
struct CoreConfig
{
    std::string name = "SKL";

    /** @name Commit and steering bandwidth (Figure 15) @{ */
    int commitWidth = 4;
    int steerWidth = 4; //!< ROB' head steering bandwidth (Noreba)
    /** @} */

    /** @name Window resources (Table 3) @{ */
    int robEntries = 224;
    int iqEntries = 68;
    int lqEntries = 72;
    int sqEntries = 56;
    int rfEntries = 168; //!< physical registers available for renaming
    /** @} */

    bool prefetcher = true; //!< DCPT at the L1D (Table 2, Figure 13)

    /** @name Commit subsystem @{ */
    CommitMode commitMode = CommitMode::InOrder;
    SelectiveRobConfig srob;
    bool earlyCommitLoads = false; //!< ECL (Section 6.1.5)
    /** @} */

    /** @name Instrumentation @{ */
    bool attributeStalls = false; //!< per-branch ROB-stall stats (Fig 7)
    /** Re-derive every PipelineIndex answer from a naive ROB scan each
     *  cycle and panic on divergence; also panic when ROB/ROB', IQ, LQ,
     *  SQ, PRF, a commit queue, the CQT or the CIT holds more than its
     *  capacity (testing only). */
    bool shadowChecks = false;
    /** @} */
};

/**
 * Declarative CoreConfig field table — the single source of truth for
 * canonical serialization, the config fingerprint, and the per-field
 * tests. Each entry names one scalar field by its dotted path (which
 * is also the member access on a CoreConfig), tagged by type:
 * S = std::string, I = int (with its smallest legal value, which
 * validateConfig enforces), B = bool, M = CommitMode.
 *
 * Adding a field to CoreConfig means adding it here (and, when it
 * changes simulation results, bumping RESULT_STORE_MODEL_VERSION in
 * sim/result_store.h). The sizeof tripwire in config.cc catches fields
 * silently left out; tests/result_store_test.cc additionally asserts
 * that mutating any listed field changes the fingerprint.
 */
#define NOREBA_CORE_CONFIG_FIELDS(S, I, B, M)                             \
    S(name)                                                               \
    I(commitWidth, 1)                                                     \
    I(steerWidth, 1)                                                      \
    I(robEntries, 1)                                                      \
    I(iqEntries, 1)                                                       \
    I(lqEntries, 1)                                                       \
    I(sqEntries, 1)                                                       \
    I(rfEntries, 1)                                                       \
    B(prefetcher)                                                         \
    M(commitMode)                                                         \
    I(srob.numBrCqs, 1)                                                   \
    I(srob.brCqEntries, 1)                                                \
    I(srob.prCqEntries, 1)                                                \
    I(srob.citEntries, 1)                                                 \
    B(srob.enforceInstanceOrder)                                          \
    B(earlyCommitLoads)                                                   \
    B(attributeStalls)                                                    \
    B(shadowChecks)

/**
 * One CoreConfig field bound to a live struct, for generic
 * serialization and per-field mutation in tests. Exactly the
 * pointer matching `kind` is non-null.
 */
struct ConfigFieldRef
{
    const char *name; //!< dotted path, e.g. "srob.numBrCqs"
    enum class Kind { Str, Int, Bool, Mode } kind;
    std::string *str = nullptr;
    int *i = nullptr;
    bool *b = nullptr;
    CommitMode *mode = nullptr;
};

/**
 * Throw SimError naming the first int field below its table minimum.
 * simulate() calls this before building a Core, so an illegal config
 * fails its job instead of stalling until the no-progress panic.
 */
void validateConfig(const CoreConfig &cfg);

/** Every field of @p cfg, in NOREBA_CORE_CONFIG_FIELDS order. */
std::vector<ConfigFieldRef> configFieldRefs(CoreConfig &cfg);

/**
 * Canonical serialization: one `path=value` line per field, in table
 * order. Deterministic and locale-independent, so equal configs
 * serialize to equal strings on every platform — the content half of
 * the result store's content-addressed key.
 */
std::string serializeConfig(const CoreConfig &cfg);

/** serializeConfig(cfg), appended to @p out. */
void serializeConfig(const CoreConfig &cfg, std::string &out);

/** FNV-1a fingerprint of serializeConfig(cfg). */
uint64_t configFingerprint(const CoreConfig &cfg);

/** Skylake-like core (Table 3: ROB 224, IQ 68, LQ/SQ 72/56, RF 168). */
CoreConfig skylakeConfig();
/** Haswell-like core (ROB 192, IQ 60, LQ/SQ 72/42, RF 128). */
CoreConfig haswellConfig();
/** Nehalem-like core (ROB 128, IQ 56, LQ/SQ 48/36, RF 64). */
CoreConfig nehalemConfig();

/** Lookup by name: "SKL", "HSW", "NHM". */
CoreConfig configByName(const std::string &name);

} // namespace noreba

#endif // NOREBA_UARCH_CONFIG_H
