/**
 * @file
 * The core's completion wheel against the binary heap it replaced.
 * Random pushes within the horizon, over many seeds, must drain in
 * exactly the (cycle, seq) order of a std::priority_queue fed the same
 * events; the horizon must exceed the longest latency the Table 2
 * memory system and functional units can produce.
 */

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "isa/isa.h"
#include "uarch/cache.h"
#include "uarch/completion_wheel.h"

namespace noreba {
namespace {

/** The heap's element, ordered exactly as Core's heap ordered it. */
struct HeapEvent
{
    Cycle cycle;
    uint64_t seq;
    uint64_t id;
    bool
    operator>(const HeapEvent &o) const
    {
        return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
    }
};

using Heap = std::priority_queue<HeapEvent, std::vector<HeapEvent>,
                                 std::greater<HeapEvent>>;

/** (seq, id) pairs in the order they left the structure. */
using Drained = std::vector<std::pair<uint64_t, uint64_t>>;

/**
 * Run @p cycles of push/drain on a wheel and a heap with the same
 * random events. Most latencies are short (functional units, cache
 * hits), some reach the far end of the horizon. Seqs mostly follow
 * issue order but often go back (an older instruction issuing late),
 * and are unique, as dispatch order is.
 */
void
checkAgainstHeap(uint64_t seed, Cycle cycles)
{
    Rng rng(seed);
    CompletionWheel wheel;
    Heap heap;
    uint64_t nextSeq = 1;
    uint64_t nextId = 0;
    uint64_t drained = 0;
    for (Cycle now = 0; now < cycles + CompletionWheel::HORIZON; ++now) {
        Drained fromWheel;
        wheel.drain(now, [&](const CompletionWheel::Event &e) {
            fromWheel.emplace_back(e.seq, e.gen);
        });
        Drained fromHeap;
        while (!heap.empty() && heap.top().cycle <= now) {
            fromHeap.emplace_back(heap.top().seq, heap.top().id);
            heap.pop();
        }
        ASSERT_EQ(fromWheel, fromHeap)
            << "seed " << seed << ", cycle " << now;
        drained += fromWheel.size();
        if (now >= cycles)
            continue; // only drain the tail
        const int pushes = static_cast<int>(rng.below(7));
        for (int i = 0; i < pushes; ++i) {
            Cycle latency;
            if (rng.below(4) != 0)
                latency = 1 + rng.below(12);
            else
                latency = 1 + rng.below(CompletionWheel::HORIZON - 1);
            uint64_t high = rng.below(3) != 0
                                ? nextSeq++
                                : nextSeq - rng.below(nextSeq);
            // The low bits make every seq unique.
            const uint64_t seq = (high << 20) | nextId;
            wheel.push(now, now + latency, seq, nullptr, nextId);
            heap.push(HeapEvent{now + latency, seq, nextId});
            ++nextId;
        }
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(drained, nextId) << "seed " << seed;
}

TEST(CompletionWheel, DrainsInTheHeapsOrder)
{
    for (uint64_t seed = 1; seed <= 200; ++seed)
        checkAgainstHeap(seed, 2000);
}

TEST(CompletionWheel, ReusesNodesAcrossManyRevolutions)
{
    // Thousands of laps of the wheel: recycled nodes and wrapped
    // bucket indices must keep the heap's order.
    checkAgainstHeap(7, 40 * CompletionWheel::HORIZON);
}

TEST(CompletionWheel, SameCycleEventsLeaveInSeqOrder)
{
    CompletionWheel wheel;
    // Pushed over three cycles, all landing on cycle 20: a younger
    // instruction with a long latency first, older ones later.
    wheel.push(1, 20, 50, nullptr, 0);
    wheel.push(2, 20, 60, nullptr, 1);
    wheel.push(3, 20, 10, nullptr, 2);
    wheel.push(3, 20, 55, nullptr, 3);
    std::vector<uint64_t> seqs;
    for (Cycle now = 4; now <= 20; ++now)
        wheel.drain(now, [&](const CompletionWheel::Event &e) {
            seqs.push_back(e.seq);
        });
    EXPECT_EQ(seqs, (std::vector<uint64_t>{10, 50, 55, 60}));
}

TEST(CompletionWheel, PushOffTheWheelPanics)
{
    CompletionWheel wheel;
    EXPECT_DEATH(wheel.push(5, 5, 1, nullptr, 0), "off the wheel");
    EXPECT_DEATH(wheel.push(5, 5 + CompletionWheel::HORIZON, 1, nullptr, 0),
                 "off the wheel");
}

TEST(CompletionWheel, HorizonExceedsTheWorstCaseLatency)
{
    // The worst case from the Table 2 constants: a TLB miss, then a
    // load that misses L1D, L2 and L3 and goes to DRAM.
    EXPECT_EQ(MAX_COMPLETION_LATENCY,
              1 + TLB_MISS_PENALTY + L3_CACHE.latency + DRAM_LATENCY);

    // The models agree: a cold TLB and a cold hierarchy charge exactly
    // that (Core::loadLatency adds the two).
    Tlb tlb(TLB_ENTRIES, TLB_MISS_PENALTY);
    MemoryHierarchy mem;
    const uint64_t addr = 0x12345678;
    EXPECT_EQ(tlb.access(addr) + mem.access(addr, false),
              MAX_COMPLETION_LATENCY);

    // Every other path is shorter: store-to-load forwarding (the TLB
    // walk plus 2) and every functional unit.
    EXPECT_LT(1 + TLB_MISS_PENALTY + 2, MAX_COMPLETION_LATENCY);
    for (int op = 0; op < static_cast<int>(Opcode::NUM_OPCODES); ++op)
        EXPECT_LT(execLatency(static_cast<Opcode>(op)),
                  MAX_COMPLETION_LATENCY);

    EXPECT_GT(CompletionWheel::HORIZON, MAX_COMPLETION_LATENCY);
}

} // namespace
} // namespace noreba
