/**
 * @file
 * The one way to watch a Core run (Core::observe, simulate). Without an
 * observer each call site is one null test; observers never write
 * CoreStats, so watching cannot change results. PipelineView and
 * InFlight are only declared: noreba_trace does not link noreba_uarch.
 */

#ifndef NOREBA_TRACE_OBSERVER_H
#define NOREBA_TRACE_OBSERVER_H

#include "trace/events.h"

namespace noreba {

class PipelineView;
struct InFlight;

class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    /** One pipeline milestone or commit-stall cycle. */
    virtual void onEvent(const TraceEvent &) {}

    /** An instruction retires: called before its Commit event and
     *  before its resources are released. */
    virtual void onCommit(const PipelineView &, const InFlight &) {}
};

} // namespace noreba

#endif // NOREBA_TRACE_OBSERVER_H
