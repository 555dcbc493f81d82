/**
 * @file
 * Shared helpers for the pipeline-level tests: small program builders,
 * trace preparation, and core construction.
 */

#ifndef NOREBA_TESTS_TEST_UTIL_H
#define NOREBA_TESTS_TEST_UTIL_H

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "sim/runner.h"
#include "uarch/branch_predictor.h"
#include "uarch/core.h"

namespace noreba::testutil {

/** Interpreted trace + misprediction verdicts for a finished Program. */
struct Prepared
{
    DynamicTrace trace;
    std::vector<uint8_t> misp;
};

inline Prepared
prepare(const Program &prog, uint64_t maxDynInsts = 2'000'000)
{
    Prepared out;
    Interpreter interp(prog);
    InterpOptions opts;
    opts.maxDynInsts = maxDynInsts;
    out.trace = interp.run(opts);
    out.misp = precomputeMispredictions(out.trace);
    return out;
}

inline CoreStats
run(const Prepared &p, CommitMode mode,
    const CoreConfig &base = skylakeConfig())
{
    CoreConfig cfg = base;
    cfg.commitMode = mode;
    validateConfig(cfg);
    Core core(cfg, p.trace, p.misp);
    return core.run();
}

/**
 * Every counter and every branch-stall entry equal, for bit-identity
 * checks. Walks the CORE_STATS_FIELDS table, so a counter added there
 * is compared without touching the tests; a mismatch names the first
 * field that differs.
 */
inline ::testing::AssertionResult
statsEqual(const CoreStats &a, const CoreStats &b)
{
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter && a.*f.counter != b.*f.counter)
            return ::testing::AssertionFailure()
                   << f.name << ": " << a.*f.counter
                   << " != " << b.*f.counter;
    if (a.branchStalls.size() != b.branchStalls.size())
        return ::testing::AssertionFailure()
               << "branchStalls: " << a.branchStalls.size()
               << " != " << b.branchStalls.size() << " entries";
    for (const auto &[pc, stall] : a.branchStalls) {
        auto it = b.branchStalls.find(pc);
        if (it == b.branchStalls.end() ||
            it->second.stallCycles != stall.stallCycles ||
            it->second.instances != stall.instances ||
            it->second.dependents != stall.dependents)
            return ::testing::AssertionFailure()
                   << "branchStalls differ at pc " << pc;
    }
    return ::testing::AssertionSuccess();
}

/**
 * Run one trace under @p mode with and without CoreConfig::shadowChecks.
 * The shadowed run panics (aborting the test) on any divergence from
 * the naive ROB and IQ scans; the pair must otherwise be bit-identical
 * (observation must not perturb). Returns the unshadowed stats.
 */
inline CoreStats
runShadowPair(TraceView trace, const std::vector<uint8_t> &misp,
              CommitMode mode, CoreConfig cfg, const std::string &label)
{
    cfg.commitMode = mode;
    cfg.shadowChecks = false;
    validateConfig(cfg);
    Core plain(cfg, trace, misp);
    CoreStats base = plain.run();

    cfg.shadowChecks = true;
    Core shadowed(cfg, trace, misp);
    CoreStats shadow = shadowed.run();

    EXPECT_TRUE(statsEqual(base, shadow))
        << label << "/" << commitModeName(mode);
    return base;
}

inline CoreStats
runShadowPair(const Prepared &p, CommitMode mode, const CoreConfig &cfg,
              const std::string &label)
{
    return runShadowPair(p.trace, p.misp, mode, cfg, label);
}

/**
 * A counted loop whose body is supplied by the caller; the loop runs
 * `iters` times with T6 as the induction variable.
 */
template <typename BodyFn>
Program
countedLoop(int64_t iters, BodyFn &&body, std::string name = "loop")
{
    Program prog(std::move(name));
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int exit = b.newBlock("exit");
    b.at(entry).li(T6, 0).li(T5, iters).fallthrough(loop);
    b.at(loop);
    body(b, prog, loop, exit);
    b.addi(T6, T6, 1).blt(T6, T5, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    return prog;
}

/**
 * The canonical NOREBA opportunity: a loop whose delinquent (cache
 * missing, data-dependent) branch guards a tiny body while the rest of
 * the iteration is independent. Annotated by the real pass.
 */
inline Program
delinquentLoop(int64_t iters = 6000)
{
    Program prog("delinquent");
    Rng rng(42);
    const int64_t tableLen = 1 << 18; // 2 MB
    uint64_t table = prog.allocGlobal(tableLen * 8);
    for (int64_t i = 0; i < tableLen; ++i)
        prog.poke64(table + static_cast<uint64_t>(i) * 8, rng.next());

    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int rare = b.newBlock("rare");
    int next = b.newBlock("next");
    int exit = b.newBlock("exit");
    const AliasRegion R = 1;
    b.at(entry)
        .li(S2, static_cast<int64_t>(table))
        .li(S3, 0)
        .li(S4, iters)
        .li(S5, 0)
        .li(S6, 0)
        .li(S7, tableLen - 1)
        .li(S8, 0x9e3779b9)
        .fallthrough(loop);
    b.at(loop)
        .mul(T0, S3, S8)
        .srli(T0, T0, 13)
        .and_(T0, T0, S7)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R)          // delinquent load
        .andi(T2, T1, 15)
        .beq(T2, ZERO, rare, next); // delinquent branch (~6%)
    b.at(rare).add(S5, S5, T1).jump(next);
    b.at(next)
        .addi(S6, S6, 3)           // independent work
        .xori(S6, S6, 1)
        .srli(T3, S6, 2)
        .add(S6, S6, T3)
        .addi(S3, S3, 1)
        .blt(S3, S4, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    runBranchDependencePass(prog);
    return prog;
}

} // namespace noreba::testutil

#endif // NOREBA_TESTS_TEST_UTIL_H
