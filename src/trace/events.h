/**
 * @file
 * Typed pipeline-event records and the commit-stall attribution
 * taxonomy. One TraceEvent is emitted per pipeline milestone (fetch,
 * dispatch, issue, commit, squash) and one per commit-stall cycle; the
 * EventLog (event_log.h) stores them in a bounded ring and the Chrome
 * trace exporter (chrome_trace.h) turns them into a Perfetto-loadable
 * JSON timeline.
 *
 * The StallCause taxonomy is the heart of the subsystem: every cycle in
 * which the commit stage does not retire a full commitWidth group is
 * charged to exactly one cause, so the per-cause counters in CoreStats
 * partition total cycles (see DESIGN.md §10 for the invariants and the
 * classification priority order).
 */

#ifndef NOREBA_TRACE_EVENTS_H
#define NOREBA_TRACE_EVENTS_H

#include <cstdint>

#include "interp/trace.h"

namespace noreba {

/** Pipeline milestone a TraceEvent records. */
enum class TraceEventType : uint8_t
{
    Fetch,       //!< instruction entered the IFQ
    Dispatch,    //!< renamed into the window (ROB/IQ/LSQ allocated)
    Issue,       //!< left the IQ for a functional unit
    Commit,      //!< architecturally retired
    Squash,      //!< misprediction squash; idx = resolving branch
    CommitStall, //!< a cycle whose commit width went (partly) unused
};

/**
 * Why a cycle's commit width went unused. Exactly one cause is charged
 * per stall cycle (classification order: Empty, Fence, HeadBranch,
 * HeadMem, HeadExec, Structural); WidthExhausted tags the complement —
 * cycles that retired a full commit group — so the causes partition
 * total cycles.
 */
enum class StallCause : uint8_t
{
    None,           //!< not a stall record
    Empty,          //!< no dispatched uncommitted instruction in flight
    HeadBranch,     //!< oldest uncommitted blocked on an unresolved
                    //!< branch (itself, or its compiler guard chain)
    HeadMem,        //!< ... on a memory op (page-table check or data)
    HeadExec,       //!< ... still executing (FU latency, operands)
    Fence,          //!< ... on a FENCE drain
    Structural,     //!< ... on SROB structure limits (CQ/CQT/CIT) or
                    //!< steer/commit bandwidth
    WidthExhausted, //!< full commit group retired (not a stall)
    NUM_CAUSES,
};

const char *stallCauseName(StallCause cause);

/** One logged pipeline event. */
struct TraceEvent
{
    uint64_t cycle = 0;
    uint64_t pc = 0;
    TraceIdx idx = TRACE_NONE; //!< trace index (TRACE_NONE for stalls)
    TraceEventType type = TraceEventType::Fetch;
    StallCause cause = StallCause::None; //!< CommitStall records only
};

} // namespace noreba

#endif // NOREBA_TRACE_EVENTS_H
