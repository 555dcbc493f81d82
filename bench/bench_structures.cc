/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own building
 * blocks: predictor, caches, DCPT, the compiler analyses, the
 * functional interpreter and the cycle-level core. These measure
 * simulator throughput (how fast the reproduction itself runs), which
 * bounds how much evaluation the figure benches can afford.
 */

#include <benchmark/benchmark.h>

#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/dominance.h"
#include "sim/runner.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/prefetcher.h"
#include "workloads/workloads.h"

using namespace noreba;

namespace {

const TraceBundle &
mcfBundle()
{
    static TraceBundle bundle = [] {
        TraceOptions opts;
        opts.maxDynInsts = 60000;
        return prepareTrace("mcf", opts);
    }();
    return bundle;
}

void
BM_TagePredictor(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        TagePredictor tage;
        uint64_t misp = 0;
        for (const auto &rec : b.trace.records) {
            if (!rec.isCondBr())
                continue;
            misp += tage.predict(rec.pc) != rec.taken;
            tage.update(rec.pc, rec.taken);
        }
        benchmark::DoNotOptimize(misp);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.branches));
}
BENCHMARK(BM_TagePredictor);

void
BM_CacheHierarchy(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        CoreConfig cfg = skylakeConfig();
        MemoryHierarchy mem(cfg);
        int64_t total = 0;
        for (const auto &rec : b.trace.records)
            if (rec.memSize)
                total += mem.access(rec.addrOrImm, isStore(rec.op));
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.loads + b.trace.stores));
}
BENCHMARK(BM_CacheHierarchy);

void
BM_DcptPrefetcher(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        CoreConfig cfg = skylakeConfig();
        MemoryHierarchy mem(cfg);
        DcptPrefetcher dcpt;
        for (const auto &rec : b.trace.records)
            if (isLoad(rec.op))
                dcpt.observe(rec.pc, rec.addrOrImm, mem);
        benchmark::DoNotOptimize(dcpt.issued());
    }
}
BENCHMARK(BM_DcptPrefetcher);

void
BM_CompilerPass(benchmark::State &state)
{
    // Build once; each iteration annotates a fresh copy, so the timed
    // loop measures the pass and not the workload generator.
    const Program built = buildWorkload("mcf");
    for (auto _ : state) {
        state.PauseTiming();
        Program prog = built;
        state.ResumeTiming();
        PassResult res = runBranchDependencePass(prog);
        benchmark::DoNotOptimize(res.numMarkedBranches);
    }
}
BENCHMARK(BM_CompilerPass);

void
BM_PostDominators(benchmark::State &state)
{
    Program prog = buildWorkload("gcc");
    prog.function().computeCFG();
    for (auto _ : state) {
        DominatorTree pdom(prog.function(),
                           DominatorTree::Kind::PostDominators);
        benchmark::DoNotOptimize(pdom.idom(0));
    }
}
BENCHMARK(BM_PostDominators);

void
BM_Interpreter(benchmark::State &state)
{
    Program prog = buildWorkload("sha");
    for (auto _ : state) {
        Interpreter interp(prog);
        InterpOptions opts;
        opts.maxDynInsts = 50000;
        DynamicTrace t = interp.run(opts);
        benchmark::DoNotOptimize(t.dynInsts);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_Interpreter);

/** The cycle-level core on the mcf trace, one run per commit mode
 *  (the argument is the CommitMode value). */
void
BM_Core(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = static_cast<CommitMode>(state.range(0));
    state.SetLabel(commitModeName(cfg.commitMode));
    for (auto _ : state) {
        CoreStats s = simulate(cfg, b);
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.dynInsts));
}
BENCHMARK(BM_Core)->DenseRange(static_cast<int>(CommitMode::InOrder),
                               static_cast<int>(CommitMode::ValidationBuffer));

} // namespace

BENCHMARK_MAIN();
