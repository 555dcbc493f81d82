/**
 * @file
 * Differential tests for the core's incremental bookkeeping: the
 * pipeline-state indices (uarch/pipeline_index.h) and the wakeup-driven
 * scheduler's ready queue and pending store address-gen list
 * (uarch/core.cc). CoreConfig::shadowChecks re-derives every index
 * answer from a naive scan of the master ROB and every scheduler answer
 * from a naive IQ scan each cycle, and panics on the first divergence;
 * these tests drive it through all seven commit modes, the full
 * workload registry, randomized high-misprediction programs whose
 * squash storms stress the rollback paths, early-commit-load zombies,
 * and the delinquent loop. The same knob checks every Table-2
 * structure's occupancy against its capacity each cycle; the
 * CapacityShadow suite squeezes the Selective ROB until each of its
 * limits binds. Every shadowed run must also produce bit-identical
 * CoreStats to its unshadowed twin (observation must not perturb).
 */

#include <initializer_list>

#include <gtest/gtest.h>

#include "test_util.h"

namespace noreba {
namespace {

using testutil::Prepared;
using testutil::prepare;
using testutil::runShadowPair;

constexpr CommitMode ALL_MODES[] = {
    CommitMode::InOrder,       CommitMode::NonSpecOoO,
    CommitMode::Noreba,        CommitMode::IdealReconv,
    CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
    CommitMode::ValidationBuffer,
};

/**
 * A randomized squash-storm program: a loop with three ~50%-taken
 * data-dependent branches per iteration (hash-indexed loads from a
 * random table), a branch-guarded store, and a rare FENCE, so every
 * pipeline event the index and the scheduler track — dispatch, wakeup,
 * resolve, TLB check, commit, squash, free — fires constantly under
 * heavy misprediction.
 */
Program
stormProgram(uint64_t seed, int64_t iters)
{
    Program prog("storm" + std::to_string(seed));
    Rng rng(seed);
    const int64_t tableLen = 1 << 12;
    uint64_t table = prog.allocGlobal(tableLen * 8);
    for (int64_t i = 0; i < tableLen; ++i)
        prog.poke64(table + static_cast<uint64_t>(i) * 8, rng.next());

    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int a1 = b.newBlock("a1");
    int j1 = b.newBlock("j1");
    int a2 = b.newBlock("a2");
    int j2 = b.newBlock("j2");
    int a3 = b.newBlock("a3");
    int j3 = b.newBlock("j3");
    int fb = b.newBlock("fence");
    int next = b.newBlock("next");
    int exit = b.newBlock("exit");
    const AliasRegion R = 1;

    b.at(entry)
        .li(S2, static_cast<int64_t>(table))
        .li(S3, 0)
        .li(S4, iters)
        .li(S5, 0)
        .li(S7, tableLen - 1)
        .li(S8, 0x9e3779b9)
        .fallthrough(loop);
    b.at(loop)
        .mul(T0, S3, S8)
        .srli(T0, T0, 11)
        .and_(T0, T0, S7)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R)
        .andi(T2, T1, 1)
        .beq(T2, ZERO, a1, j1); // ~50% data-dependent branch
    b.at(a1).add(S5, S5, T1).jump(j1);
    b.at(j1).andi(T2, T1, 2).bne(T2, ZERO, a2, j2); // ~50%
    b.at(a2).sd(S5, T0, 0, R).jump(j2); // branch-guarded store
    b.at(j2).andi(T2, T1, 4).beq(T2, ZERO, a3, j3); // ~50%
    b.at(a3).ld(T3, T0, 0, R).add(S5, S5, T3).jump(j3);
    b.at(j3).andi(T2, T1, 255).beq(T2, ZERO, fb, next);
    b.at(fb).fence().jump(next); // rare (~1/256) memory barrier
    b.at(next).addi(S3, S3, 1).blt(S3, S4, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    runBranchDependencePass(prog);
    return prog;
}

/** A small window magnifies squash/reclaim edge interleavings. */
CoreConfig
tinyConfig()
{
    CoreConfig cfg = skylakeConfig();
    cfg.name = "tiny";
    cfg.robEntries = 32;
    cfg.iqEntries = 16;
    cfg.lqEntries = 12;
    cfg.sqEntries = 10;
    cfg.rfEntries = 48;
    cfg.srob.numBrCqs = 2;
    cfg.srob.brCqEntries = 8;
    cfg.srob.prCqEntries = 16;
    cfg.srob.citEntries = 8;
    return cfg;
}

/**
 * Both suites below run under the one shadowChecks knob, so every input
 * checks the pipeline index and the scheduler together. The suites keep
 * the inputs they were first written for: the PipelineIndexShadow set
 * (storm seeds 11/23, ECL seed 7 with stall attribution, the delinquent
 * loop) and the SchedulerShadow set (storm seeds 5/31, ECL seed 17).
 * The workload registry runs at Skylake size in one and in the tiny
 * window in the other.
 */

/** Every registry workload, every commit mode, one window size. */
void
shadowWorkloadRegistry(const CoreConfig &cfg)
{
    TraceOptions opts;
    opts.maxDynInsts = 6000;
    for (const std::string &name : workloadNames()) {
        TraceBundle bundle = prepareTrace(name, opts);
        for (CommitMode mode : ALL_MODES)
            runShadowPair(bundle.view(), bundle.mispredictions(), mode, cfg,
                          name + "/" + cfg.name);
    }
}

/** Storm programs of the given seeds at Skylake and tiny size. */
void
shadowSquashStorms(std::initializer_list<uint64_t> seeds)
{
    for (uint64_t seed : seeds) {
        Program prog = stormProgram(seed, 1100);
        Prepared p = prepare(prog, 60000);
        for (CommitMode mode : ALL_MODES) {
            std::string label = "storm" + std::to_string(seed);
            CoreStats s = runShadowPair(p, mode, skylakeConfig(), label);
            // The storm must actually storm, or the rollback paths go
            // untested: ~50%-taken data-dependent branches should
            // squash hundreds of times in 1100 iterations.
            EXPECT_GT(s.squashes, 100u) << label;
            runShadowPair(p, mode, tinyConfig(), label + "/tiny");
        }
    }
}

/**
 * ECL retires loads before their data returns, so committed-
 * incomplete zombies cross squashes — the nastiest case for the
 * frontier and the unchecked-memory index. A zombie also stays in the
 * IQ, and when a squash frees its (uncommitted) producer, the gen
 * bump — not a completion — must deliver its wakeup.
 */
void
shadowEarlyCommitLoads(uint64_t seed, bool attributeStalls)
{
    Program prog = stormProgram(seed, 900);
    Prepared p = prepare(prog, 50000);
    std::string label = "ecl" + std::to_string(seed);
    for (CommitMode mode : ALL_MODES) {
        CoreConfig cfg = skylakeConfig();
        cfg.earlyCommitLoads = true;
        runShadowPair(p, mode, cfg, label);
        CoreConfig tiny = tinyConfig();
        tiny.earlyCommitLoads = true;
        tiny.attributeStalls = attributeStalls;
        runShadowPair(p, mode, tiny, label + "/tiny");
    }
}

TEST(PipelineIndexShadow, WorkloadRegistryAllModes)
{
    shadowWorkloadRegistry(skylakeConfig());
}

TEST(PipelineIndexShadow, SquashStormsAllModes)
{
    shadowSquashStorms({11u, 23u});
}

TEST(PipelineIndexShadow, EarlyCommitLoadZombies)
{
    shadowEarlyCommitLoads(7, true);
}

TEST(PipelineIndexShadow, DelinquentLoopMatchesOracle)
{
    // The canonical NOREBA workload: deep unresolved-branch chains with
    // real guard annotations from the compiler pass.
    Program prog = testutil::delinquentLoop(800);
    Prepared p = prepare(prog);
    for (CommitMode mode : ALL_MODES)
        runShadowPair(p, mode, skylakeConfig(), "delinquent");
}

TEST(SchedulerShadow, WorkloadRegistryAllModes)
{
    shadowWorkloadRegistry(tinyConfig());
}

TEST(SchedulerShadow, SquashStormsAllModes)
{
    shadowSquashStorms({5u, 31u});
}

TEST(SchedulerShadow, EarlyCommitLoadZombies)
{
    shadowEarlyCommitLoads(17, false);
}

/**
 * The capacity checks only catch an overflow where a limit binds, so
 * squeeze the Selective ROB on the delinquent loop until each of its
 * limits stalls Noreba: narrow queues and a four-entry CIT bind the
 * CIT, the commit queues and ROB'; many wide queues bind the
 * eight-entry CQT. The tiny window's IQ, LQ, SQ and PRF limits bind
 * under every mode in the suites above.
 */
TEST(CapacityShadow, NorebaStructuresFillButNeverOverflow)
{
    Prepared p = prepare(testutil::delinquentLoop(800), 40000);

    CoreConfig narrow = tinyConfig();
    narrow.srob.brCqEntries = 2;
    narrow.srob.prCqEntries = 4;
    narrow.srob.citEntries = 4;
    CoreStats s = runShadowPair(p, CommitMode::Noreba, narrow, "narrow");
    EXPECT_GT(s.citFullStalls, 0u);
    EXPECT_GT(s.steerStallCqFull, 0u);
    EXPECT_GT(s.windowFullCycles, 0u);

    CoreConfig wide = skylakeConfig();
    wide.srob.numBrCqs = 16;
    wide.srob.brCqEntries = 32;
    wide.srob.prCqEntries = 64;
    s = runShadowPair(p, CommitMode::Noreba, wide, "wide");
    EXPECT_GT(s.steerStallCqt, 0u);
}

} // namespace
} // namespace noreba
