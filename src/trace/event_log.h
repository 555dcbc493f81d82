/**
 * @file
 * A low-overhead, bounded binary event log. The core emits one record
 * per pipeline milestone; the log keeps the most recent `capacity`
 * records in a preallocated ring (no allocation, no locking, O(1) per
 * emit) and counts what it had to drop, so tracing a multi-million
 * cycle run costs a fixed memory budget.
 *
 * The log is a CoreObserver (trace/observer.h): a run is traced by
 * passing a log to Core::observe() or simulate(cfg, bundle, &log).
 */

#ifndef NOREBA_TRACE_EVENT_LOG_H
#define NOREBA_TRACE_EVENT_LOG_H

#include <cstddef>
#include <vector>

#include "trace/events.h"
#include "trace/observer.h"

namespace noreba {

class EventLog : public CoreObserver
{
  public:
    /** Default ring capacity (events), ~2 MB of records. */
    static constexpr size_t DEFAULT_CAPACITY = size_t{1} << 16;

    explicit EventLog(size_t capacity = DEFAULT_CAPACITY)
        : ring_(capacity ? capacity : 1)
    {
    }

    /** Append one event, overwriting the oldest once full. */
    void
    emit(uint64_t cycle, TraceEventType type, TraceIdx idx, uint64_t pc,
         StallCause cause = StallCause::None)
    {
        TraceEvent &e = ring_[head_];
        e.cycle = cycle;
        e.pc = pc;
        e.idx = idx;
        e.type = type;
        e.cause = cause;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        if (size_ < ring_.size())
            ++size_;
        ++emitted_;
    }

    void
    onEvent(const TraceEvent &e) override
    {
        emit(e.cycle, e.type, e.idx, e.pc, e.cause);
    }

    size_t capacity() const { return ring_.size(); }
    size_t size() const { return size_; }

    /** Total events ever emitted (size() + overwritten). */
    uint64_t totalEmitted() const { return emitted_; }

    /** Events the ring had to overwrite. */
    uint64_t dropped() const { return emitted_ - size_; }

    /** The retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        emitted_ = 0;
    }

  private:
    std::vector<TraceEvent> ring_;
    size_t head_ = 0; //!< next write slot
    size_t size_ = 0;
    uint64_t emitted_ = 0;
};

} // namespace noreba

#endif // NOREBA_TRACE_EVENT_LOG_H
