/**
 * @file
 * The core's completion events: a timing wheel of per-cycle buckets.
 *
 * Issue schedules each instruction's writeback a bounded number of
 * cycles ahead, and writeback drains exactly one cycle's events per
 * simulated cycle. So instead of a heap ordered by (cycle, seq), the
 * events live in HORIZON buckets indexed by `cycle & MASK`, each a
 * linked list kept in ascending seq order (an older instruction can
 * issue later with a shorter latency and land in a bucket after a
 * younger one). Draining cycle c's bucket therefore yields the events
 * in exactly the order the heap popped them.
 *
 * The list nodes live in one arena with a free chain (like the core's
 * waiter nodes), so once the arena has grown to the most events ever
 * pending at once, pushes and drains never touch the allocator.
 */

#ifndef NOREBA_UARCH_COMPLETION_WHEEL_H
#define NOREBA_UARCH_COMPLETION_WHEEL_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "uarch/config.h"
#include "uarch/inflight.h"

namespace noreba {

/**
 * The longest issue-to-writeback latency the core can schedule: a load
 * whose translation misses the TLB and whose access misses every cache
 * level (Table 2). Functional-unit latencies and store-to-load
 * forwarding are all shorter.
 */
constexpr int MAX_COMPLETION_LATENCY =
    1 + TLB_MISS_PENALTY + L3_CACHE.latency + DRAM_LATENCY;

class CompletionWheel
{
  public:
    /** Buckets on the wheel: events at most HORIZON - 1 cycles out. */
    static constexpr int HORIZON = 512;
    static_assert((HORIZON & (HORIZON - 1)) == 0,
                  "the wheel is indexed by a mask");
    static_assert(HORIZON > MAX_COMPLETION_LATENCY,
                  "an event past the horizon would alias an earlier "
                  "cycle's bucket");

    /** One scheduled writeback. */
    struct Event
    {
        uint64_t seq;  //!< dispatch order: the drain order in a cycle
        InFlight *p;
        uint64_t gen;  //!< p's incarnation when it issued
        int32_t next;  //!< arena link
    };

    /**
     * Schedule @p p's writeback at cycle @p at. Called at cycle
     * @p now, after that cycle's drain, so @p at must lie in the next
     * HORIZON - 1 cycles.
     */
    void
    push(Cycle now, Cycle at, uint64_t seq, InFlight *p, uint64_t gen)
    {
        panic_if(at <= now || at - now >= static_cast<Cycle>(HORIZON),
                 "completion %llu cycles out is off the wheel",
                 static_cast<unsigned long long>(at - now));
        int32_t n = free_;
        if (n >= 0) {
            free_ = nodes_[static_cast<size_t>(n)].next;
        } else {
            n = static_cast<int32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        nodes_[static_cast<size_t>(n)] = Event{seq, p, gen, -1};

        Bucket &b = buckets_[at & MASK];
        if (b.head < 0) {
            b.head = b.tail = n;
        } else if (node(b.tail).seq < seq) {
            // The common case: issue order follows dispatch order.
            node(b.tail).next = n;
            b.tail = n;
        } else {
            int32_t *link = &b.head;
            while (node(*link).seq < seq)
                link = &node(*link).next;
            node(n).next = *link;
            *link = n;
        }
    }

    /**
     * Hand every event scheduled for cycle @p now to @p f, in ascending
     * seq order, and recycle its node. Must be called once per cycle.
     */
    template <typename F>
    void
    drain(Cycle now, F &&f)
    {
        Bucket &b = buckets_[now & MASK];
        int32_t n = b.head;
        b.head = b.tail = -1;
        while (n >= 0) {
            const Event e = node(n);
            node(n).next = free_;
            free_ = n;
            n = e.next;
            f(e);
        }
    }

  private:
    static constexpr Cycle MASK = HORIZON - 1;

    struct Bucket
    {
        int32_t head = -1;
        int32_t tail = -1;
    };

    Event &node(int32_t n) { return nodes_[static_cast<size_t>(n)]; }

    std::array<Bucket, HORIZON> buckets_;
    std::vector<Event> nodes_;
    int32_t free_ = -1;
};

} // namespace noreba

#endif // NOREBA_UARCH_COMPLETION_WHEEL_H
