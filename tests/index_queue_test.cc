/**
 * @file
 * Unit tests for the window-bounded containers under the core: the
 * ordered IndexQueue (lazy erase, suffix truncation, dead-prefix
 * skipping, predecessor queries, program-order panics), the
 * IdxSlotRing lookup that doubles on collision, and the Ring FIFO. The
 * bounded-memory cases pin the rule that a container's footprint
 * follows the in-flight window, never the trace length.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/ring.h"
#include "uarch/index_queue.h"

namespace noreba {
namespace {

std::vector<TraceIdx>
liveIndices(const IndexQueue<> &q)
{
    std::vector<TraceIdx> out;
    for (const auto &e : q)
        out.push_back(e.idx);
    return out;
}

TEST(IndexQueue, MonotoneInsertKeepsOrder)
{
    IndexQueue<> q;
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.oldest(), nullptr);
    for (TraceIdx i : {3, 7, 8, 20})
        q.insert(i);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(liveIndices(q), (std::vector<TraceIdx>{3, 7, 8, 20}));
    ASSERT_NE(q.oldest(), nullptr);
    EXPECT_EQ(q.oldest()->idx, 3);
}

TEST(IndexQueueDeathTest, OutOfOrderInsertPanics)
{
    IndexQueue<> q;
    q.insert(10);
    EXPECT_DEATH(q.insert(10), "program order");
    EXPECT_DEATH(q.insert(4), "program order");
}

TEST(IndexQueue, PayloadTravelsWithTheIndex)
{
    IndexQueue<uint64_t> q;
    q.insert(5, 0x400);
    q.insert(9, 0x480);
    ASSERT_NE(q.find(9), nullptr);
    EXPECT_EQ(q.find(9)->payload, 0x480u);
    EXPECT_EQ(q.find(6), nullptr);
}

TEST(IndexQueue, LazyEraseHidesEntries)
{
    IndexQueue<> q;
    for (TraceIdx i = 0; i < 6; ++i)
        q.insert(i);
    EXPECT_TRUE(q.erase(2));
    EXPECT_FALSE(q.erase(2)); // already dead
    EXPECT_FALSE(q.erase(42)); // never present
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(q.find(2), nullptr);
    EXPECT_NE(q.find(3), nullptr);
    EXPECT_EQ(liveIndices(q), (std::vector<TraceIdx>{0, 1, 3, 4, 5}));
}

TEST(IndexQueue, OldestSkipsADeadPrefix)
{
    IndexQueue<> q;
    for (TraceIdx i = 10; i < 20; ++i)
        q.insert(i);
    for (TraceIdx i = 10; i < 17; ++i)
        q.erase(i);
    ASSERT_NE(q.oldest(), nullptr);
    EXPECT_EQ(q.oldest()->idx, 17);
    q.erase(17);
    q.erase(18);
    q.erase(19);
    EXPECT_EQ(q.oldest(), nullptr);
    EXPECT_EQ(q.size(), 0u);
}

TEST(IndexQueue, PredecessorSkipsDeadEntries)
{
    IndexQueue<> q;
    for (TraceIdx i : {2, 5, 9, 12})
        q.insert(i);
    EXPECT_EQ(q.predecessor(2), nullptr);
    EXPECT_EQ(q.predecessor(3)->idx, 2);
    EXPECT_EQ(q.predecessor(9)->idx, 5);
    EXPECT_EQ(q.predecessor(10)->idx, 9);
    EXPECT_EQ(q.predecessor(100)->idx, 12);
    q.erase(9);
    q.erase(5);
    EXPECT_EQ(q.predecessor(12)->idx, 2);
    q.erase(2);
    EXPECT_EQ(q.predecessor(12), nullptr);
}

TEST(IndexQueue, TruncateDropsTheSuffix)
{
    IndexQueue<uint64_t> q;
    for (TraceIdx i = 0; i < 10; ++i)
        q.insert(i, static_cast<uint64_t>(100 + i));
    q.erase(8);
    std::vector<TraceIdx> dropped;
    q.truncateAfter(5, [&](const auto &e) { dropped.push_back(e.idx); });
    // Only live entries are reported; the dead 8 just disappears.
    EXPECT_EQ(dropped, (std::vector<TraceIdx>{6, 7, 9}));
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.find(6), nullptr);
    EXPECT_EQ(q.predecessor(100)->idx, 5);
}

TEST(IndexQueue, SameIndexReinsertedAfterSquash)
{
    IndexQueue<> q;
    for (TraceIdx i : {1, 4, 6, 8})
        q.insert(i);
    q.truncateAfter(4);
    // The re-dispatched correct path reuses the squashed indices.
    q.insert(6);
    q.insert(8);
    EXPECT_EQ(liveIndices(q), (std::vector<TraceIdx>{1, 4, 6, 8}));
}

TEST(IndexQueue, DeadTailLeftoverDoesNotBlockReinsert)
{
    // A per-site bucket is not truncated when none of its live entries
    // was squashed; its dead younger leftovers must not trip the
    // program-order check on the next insert.
    IndexQueue<> q;
    q.insert(3);
    q.insert(7);
    q.erase(7);
    q.insert(5);
    EXPECT_EQ(liveIndices(q), (std::vector<TraceIdx>{3, 5}));
}

TEST(IndexQueue, MemoryBoundedByWindowWhenOldestNeverQueried)
{
    IndexQueue<> q;
    constexpr TraceIdx WINDOW = 300;
    for (TraceIdx i = 0; i < 1'000'000; ++i) {
        q.insert(i);
        if (i >= WINDOW)
            q.erase(i - WINDOW);
    }
    EXPECT_EQ(q.size(), static_cast<size_t>(WINDOW));
    EXPECT_LE(q.capacity(), 4u * WINDOW);
}

struct Obj
{
    TraceIdx idx;
};

TEST(IdxSlotRing, PutGetDrop)
{
    IdxSlotRing<Obj> r;
    Obj a{5}, b{6};
    r.put(&a);
    r.put(&b);
    EXPECT_EQ(r.get(5), &a);
    EXPECT_EQ(r.get(6), &b);
    EXPECT_EQ(r.get(7), nullptr);
    r.drop(&a);
    EXPECT_EQ(r.get(5), nullptr);
    // Dropping an object whose slot holds another is a no-op.
    Obj stale{6};
    r.drop(&stale);
    EXPECT_EQ(r.get(6), &b);
}

TEST(IdxSlotRing, SameIndexReplacesTheMapping)
{
    IdxSlotRing<Obj> r;
    Obj old{9}, fresh{9};
    r.put(&old);
    r.put(&fresh);
    EXPECT_EQ(r.get(9), &fresh);
    r.drop(&old);
    EXPECT_EQ(r.get(9), &fresh);
}

TEST(IdxSlotRing, GrowsOnCollision)
{
    IdxSlotRing<Obj> r;
    const size_t cap = r.capacity();
    Obj a{1}, b{static_cast<TraceIdx>(1 + cap)};
    r.put(&a);
    r.put(&b);
    EXPECT_GE(r.capacity(), 2 * cap);
    EXPECT_EQ(r.get(a.idx), &a);
    EXPECT_EQ(r.get(b.idx), &b);
    // An index that now aliases nothing reads as absent.
    EXPECT_EQ(r.get(static_cast<TraceIdx>(1 + 2 * r.capacity())), nullptr);
}

TEST(IdxSlotRing, SlidingWindowStaysSmall)
{
    IdxSlotRing<Obj> r;
    std::vector<Obj> objs(1'000'000);
    constexpr TraceIdx WINDOW = 300;
    for (TraceIdx i = 0; i < 1'000'000; ++i) {
        objs[static_cast<size_t>(i)].idx = i;
        r.put(&objs[static_cast<size_t>(i)]);
        if (i >= WINDOW)
            r.drop(&objs[static_cast<size_t>(i - WINDOW)]);
    }
    EXPECT_LE(r.capacity(), 512u);
    EXPECT_EQ(r.get(999'999), &objs.back());
}

TEST(Ring, FifoAcrossWraparound)
{
    Ring<int> r;
    int next = 0, expect = 0;
    for (int round = 0; round < 100; ++round) {
        for (int k = 0; k < 7; ++k)
            r.push_back(next++);
        for (int k = 0; k < 5; ++k) {
            EXPECT_EQ(r.front(), expect++);
            r.pop_front();
        }
    }
    EXPECT_EQ(r.size(), 200u);
    EXPECT_EQ(r.back(), next - 1);
    int want = expect;
    for (int v : r)
        EXPECT_EQ(v, want++);
}

TEST(Ring, PopBackEraseAndFind)
{
    Ring<int> r;
    for (int i = 0; i < 10; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_back(); // 1..8
    auto it = std::find(r.begin(), r.end(), 4);
    ASSERT_NE(it, r.end());
    r.erase(it.pos());
    std::vector<int> got(r.begin(), r.end());
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 5, 6, 7, 8}));
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Ring, CapacityFollowsPeakDepth)
{
    Ring<int> r;
    for (int i = 0; i < 1'000'000; ++i) {
        r.push_back(i);
        if (r.size() > 300)
            r.pop_front();
    }
    EXPECT_LE(r.capacity(), 512u);
}

} // namespace
} // namespace noreba
