/**
 * @file
 * Window-bounded containers keyed by trace index, the storage under the
 * pipeline-state indices (uarch/pipeline_index.h):
 *
 *  - IndexQueue: an ordered set (or map) of trace indices that only
 *    ever grows at the young end. It is a sorted vector plus a head
 *    offset; erase is lazy (the entry is marked dead), squash recovery
 *    is a suffix truncation, and the oldest live entry is found by
 *    dropping dead entries off the head, amortized O(1).
 *  - IdxSlotRing: a trace index -> in-flight instruction lookup, a
 *    power-of-two array indexed by `idx & mask` that doubles whenever
 *    two live entries collide.
 *
 * Both keep their capacity once warm, so the per-instruction path
 * allocates nothing in steady state, and both stay sized by the span of
 * live indices (the in-flight window), never by the trace length.
 */

#ifndef NOREBA_UARCH_INDEX_QUEUE_H
#define NOREBA_UARCH_INDEX_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "interp/trace.h"

namespace noreba {

/** Payload of an IndexQueue used as a plain ordered set. */
struct NoPayload
{
};

/**
 * Ordered trace indices with an optional payload each.
 *
 * Inserts must arrive in strictly increasing index order: the pipeline
 * dispatches in program order, and a squash truncates every suffix
 * (truncateAfter) before re-dispatch. Dead entries carry no meaning, so
 * insert first pops any dead tail (a dead entry younger than the new
 * index can only be a leftover of a squash this queue was not truncated
 * for) and panics if a *live* entry is not older than the new one.
 *
 * Memory: insert also drops dead entries at the head, and the vector is
 * compacted once the dropped prefix dominates it, so the footprint is
 * bounded by the index span of live entries even when oldest() is never
 * queried.
 */
template <typename Payload = NoPayload>
class IndexQueue
{
  public:
    struct Entry
    {
        TraceIdx idx;
        [[no_unique_address]] Payload payload;
        bool live;
    };

    /** Forward iterator over the live entries, oldest first. */
    class LiveIter
    {
      public:
        LiveIter(const Entry *p, const Entry *end) : p_(p), end_(end)
        {
            skip();
        }
        const Entry &operator*() const { return *p_; }
        const Entry *operator->() const { return p_; }
        LiveIter &
        operator++()
        {
            ++p_;
            skip();
            return *this;
        }
        bool operator!=(const LiveIter &o) const { return p_ != o.p_; }
        bool operator==(const LiveIter &o) const { return p_ == o.p_; }

      private:
        void
        skip()
        {
            while (p_ != end_ && !p_->live)
                ++p_;
        }
        const Entry *p_;
        const Entry *end_;
    };

    LiveIter begin() const { return LiveIter(first(), last()); }
    LiveIter end() const { return LiveIter(last(), last()); }

    /** Live entry count. */
    size_t size() const { return live_; }

    /** Allocated slots (bounded-memory tests). */
    size_t capacity() const { return v_.capacity(); }

    void
    insert(TraceIdx idx, Payload payload = {})
    {
        while (v_.size() > head_ && !v_.back().live)
            v_.pop_back();
        dropDeadHead();
        panic_if(v_.size() > head_ && v_.back().idx >= idx,
                 "index queue: insert of trace idx %d after %d breaks "
                 "program order",
                 idx, v_.back().idx);
        v_.push_back(Entry{idx, payload, true});
        ++live_;
    }

    /** Mark @p idx dead; false if it was absent or already dead. */
    bool
    erase(TraceIdx idx)
    {
        const Entry *e = find(idx);
        if (!e)
            return false;
        v_[static_cast<size_t>(e - v_.data())].live = false;
        --live_;
        return true;
    }

    /** Drop every entry (live or dead) with an index above @p after,
     *  calling @p onLive for each live one first. O(log n + dropped). */
    template <typename Fn>
    void
    truncateAfter(TraceIdx after, Fn &&onLive)
    {
        auto it = std::upper_bound(
            v_.begin() + static_cast<std::ptrdiff_t>(head_), v_.end(),
            after, [](TraceIdx a, const Entry &e) { return a < e.idx; });
        for (auto d = it; d != v_.end(); ++d) {
            if (d->live) {
                onLive(*d);
                --live_;
            }
        }
        v_.erase(it, v_.end());
    }

    void
    truncateAfter(TraceIdx after)
    {
        truncateAfter(after, [](const Entry &) {});
    }

    /** Oldest live entry, or nullptr. Amortized O(1). */
    const Entry *
    oldest()
    {
        dropDeadHead();
        return live_ ? &v_[head_] : nullptr;
    }

    /** The live entry for @p idx, or nullptr. O(log n). */
    const Entry *
    find(TraceIdx idx) const
    {
        const Entry *p = lowerBound(idx);
        return p != last() && p->idx == idx && p->live ? p : nullptr;
    }

    /** Youngest live entry with an index below @p idx, or nullptr.
     *  O(log n) plus the run of dead entries skipped. */
    const Entry *
    predecessor(TraceIdx idx) const
    {
        for (const Entry *p = lowerBound(idx); p != first();) {
            --p;
            if (p->live)
                return p;
        }
        return nullptr;
    }

  private:
    const Entry *first() const { return v_.data() + head_; }
    const Entry *last() const { return v_.data() + v_.size(); }

    /** First entry (live or dead) whose index is not below @p idx. */
    const Entry *
    lowerBound(TraceIdx idx) const
    {
        return std::lower_bound(
            first(), last(), idx,
            [](const Entry &e, TraceIdx i) { return e.idx < i; });
    }

    void
    dropDeadHead()
    {
        while (head_ < v_.size() && !v_[head_].live)
            ++head_;
        if (head_ == v_.size()) {
            v_.clear();
            head_ = 0;
        } else if (head_ >= 32 && 2 * head_ >= v_.size()) {
            v_.erase(v_.begin(),
                     v_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    std::vector<Entry> v_;
    size_t head_ = 0; //!< entries below this offset are dropped
    size_t live_ = 0;
};

/**
 * Trace index -> in-flight object lookup for the objects whose indices
 * span a bounded window. Slot `idx & mask` holds the object; when a
 * put() finds the slot taken by a different index, the array doubles
 * (and keeps doubling) until every live index has its own slot. T must
 * expose its trace index as `T::idx`.
 */
template <typename T>
class IdxSlotRing
{
  public:
    IdxSlotRing() : slots_(256, nullptr), mask_(255) {}

    /** Map p->idx to @p p (an existing mapping of the same index is
     *  replaced). */
    void
    put(T *p)
    {
        while (true) {
            T *&s = slots_[static_cast<size_t>(p->idx) & mask_];
            if (!s || s->idx == p->idx) {
                s = p;
                return;
            }
            grow();
        }
    }

    /** The object mapped at @p idx, or nullptr. */
    T *
    get(TraceIdx idx) const
    {
        T *s = slots_[static_cast<size_t>(idx) & mask_];
        return s && s->idx == idx ? s : nullptr;
    }

    /** Unmap @p p (a no-op unless its slot holds exactly @p p). */
    void
    drop(const T *p)
    {
        T *&s = slots_[static_cast<size_t>(p->idx) & mask_];
        if (s == p)
            s = nullptr;
    }

    size_t capacity() const { return slots_.size(); }

  private:
    void
    grow()
    {
        size_t n = slots_.size();
        while (true) {
            n *= 2;
            std::vector<T *> next(n, nullptr);
            bool fits = true;
            for (T *p : slots_) {
                if (!p)
                    continue;
                T *&s = next[static_cast<size_t>(p->idx) & (n - 1)];
                if (s) {
                    fits = false;
                    break;
                }
                s = p;
            }
            if (fits) {
                slots_.swap(next);
                mask_ = n - 1;
                return;
            }
        }
    }

    std::vector<T *> slots_;
    size_t mask_;
};

} // namespace noreba

#endif // NOREBA_UARCH_INDEX_QUEUE_H
