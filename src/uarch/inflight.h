/**
 * @file
 * In-flight dynamic instruction state shared by the pipeline stages and
 * the commit policies.
 */

#ifndef NOREBA_UARCH_INFLIGHT_H
#define NOREBA_UARCH_INFLIGHT_H

#include <cstdint>

#include "interp/trace.h"

namespace noreba {

using Cycle = uint64_t;

/** One in-flight instruction (from fetch until commit + completion). */
struct InFlight
{
    /** Validity generation: bumped when the pool slot is recycled. */
    uint64_t gen = 0;

    TraceIdx idx = TRACE_NONE;
    const TraceRecord *rec = nullptr;
    uint64_t seq = 0; //!< unique dispatch order id (refetches get new)

    /** @name Stage progress @{ */
    Cycle fetchAt = 0;
    Cycle decodeReadyAt = 0;
    bool dispatched = false;
    bool inIq = false;
    bool issued = false;
    bool completed = false;
    bool committed = false;
    Cycle completeAt = 0;
    /** @} */

    /** @name Memory state @{ */
    bool tlbChecked = false; //!< address generated & translation started
    Cycle tlbDoneAt = 0;
    int addrSrc = -1; //!< index into srcs[] of the address operand
    /** @} */

    bool
    addrReady() const
    {
        return addrSrc < 0 || srcs[addrSrc].ready();
    }

    /** @name Branch state @{ */
    bool isBranch = false;
    bool resolved = false;
    bool mispredicted = false; //!< precomputed verdict for this instance
    /** @} */

    /** Reference to a producer that may have been recycled. */
    struct SrcRef
    {
        InFlight *p = nullptr;
        uint64_t gen = 0;

        bool
        ready() const
        {
            return p == nullptr || p->gen != gen || p->completed;
        }
    };

    SrcRef srcs[3];
    int numSrcs = 0;

    /** @name Commit-policy scratch @{ */
    int cq = -1;          //!< Noreba: commit queue id (-1 = not steered)
    bool steered = false; //!< Noreba: left the ROB'
    bool guardOk = false; //!< per-cycle memo for chain checks
    Cycle guardOkCycle = 0;
    /** @} */

    /** @name PipelineIndex bookkeeping (Core-internal) @{ */
    InFlight *frontPrev = nullptr; //!< uncommitted-frontier links
    InFlight *frontNext = nullptr;
    bool inFrontier = false;
    bool inRob = false; //!< currently in the master ROB deque
    /** @} */

    /** @name Wakeup-scheduler bookkeeping (Core-internal) @{ */

    /** Consumers to wake when this instruction completes: a FIFO
     *  chain of nodes in the core's waiter arena (-1 = empty). */
    int32_t waitHead = -1;
    int32_t waitTail = -1;
    int pendingSrcs = 0;   //!< not-yet-ready sources; 0 == issuable
    int iqPos = -1;        //!< slot in the (unordered) IQ vector
    bool inReadyQ = false; //!< member of the age-ordered ready queue
    bool inAddrPending = false; //!< store awaiting its addr-gen TLB kick
    /** @} */

    bool
    srcsReady() const
    {
        for (int i = 0; i < numSrcs; ++i)
            if (!srcs[i].ready())
                return false;
        return true;
    }
};

} // namespace noreba

#endif // NOREBA_UARCH_INFLIGHT_H
