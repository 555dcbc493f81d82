/**
 * @file
 * Allocation budget of the simulate loop. A counting global operator
 * new (this binary only) wraps Core::run: once the window's containers
 * are warm, the per-instruction path must not touch the allocator, so
 * a whole 20k-instruction run may allocate at most 0.05 times per
 * committed instruction under every commit mode. Before the index
 * queues and rings replaced the node-based containers this was about
 * 2.1 per instruction.
 *
 * Memory must also stay window-bounded: no single allocation inside
 * Core::run may exceed 64 KiB, so nothing the loop grows may scale
 * with the trace (a one-entry-per-instruction table or a heap nothing
 * drains would cross it well before 20k instructions).
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "uarch/core.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<std::size_t> g_maxAlloc{0};

void
countAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_maxAlloc.load(std::memory_order_relaxed);
    while (n > seen && !g_maxAlloc.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
}

void *
countedAlloc(std::size_t n)
{
    countAlloc(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    countAlloc(n);
    std::size_t a = static_cast<std::size_t>(al);
    std::size_t rounded = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    countAlloc(n);
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    countAlloc(n);
    return std::malloc(n ? n : 1);
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace noreba {
namespace {

constexpr CommitMode ALL_MODES[] = {
    CommitMode::InOrder,       CommitMode::NonSpecOoO,
    CommitMode::Noreba,        CommitMode::IdealReconv,
    CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
    CommitMode::ValidationBuffer,
};

constexpr double MAX_ALLOCS_PER_INST = 0.05;
constexpr std::size_t MAX_SINGLE_ALLOC_BYTES = 64 * 1024;

class SimulateLoopAllocations : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SimulateLoopAllocations, WithinBudgetForEveryCommitMode)
{
    TraceOptions opts;
    opts.maxDynInsts = 20000;
    const TraceBundle bundle = prepareTrace(GetParam(), opts);
    for (CommitMode mode : ALL_MODES) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        Core core(cfg, bundle.view(), bundle.mispredictions());
        const uint64_t before = g_allocs.load();
        g_maxAlloc.store(0);
        CoreStats stats = core.run();
        const uint64_t allocs = g_allocs.load() - before;
        const std::size_t largest = g_maxAlloc.load();
        ASSERT_GT(stats.committedInsts, 0u);
        const double perInst = static_cast<double>(allocs) /
                               static_cast<double>(stats.committedInsts);
        EXPECT_LE(perInst, MAX_ALLOCS_PER_INST)
            << GetParam() << "/" << commitModeName(mode) << ": " << allocs
            << " allocations for " << stats.committedInsts
            << " committed instructions";
        EXPECT_LE(largest, MAX_SINGLE_ALLOC_BYTES)
            << GetParam() << "/" << commitModeName(mode)
            << ": largest single allocation inside Core::run";
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimulateLoopAllocations,
                         ::testing::Values("mcf", "lbm", "gcc"));

} // namespace
} // namespace noreba
