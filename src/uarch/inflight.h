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
    TraceRecord rec; //!< composed from the trace at fetch
    uint64_t seq = 0; //!< unique dispatch order id (refetches get new)

    /** @name Stage progress @{ */
    Cycle fetchAt = 0;
    Cycle decodeReadyAt = 0;
    bool completed = false;
    bool committed = false;
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
    bool steered = false; //!< Noreba: left the ROB'
    /** @} */

    /** @name Guard-chain memo (PipelineView::guardChainResolved) @{ */
    mutable bool chainOk = false;      //!< the chain resolved (sticky)
    mutable uint64_t chainEpoch = 0;   //!< resolve epoch of last false
    /** @} */

    /** @name PipelineIndex bookkeeping (Core-internal) @{ */
    InFlight *frontPrev = nullptr; //!< uncommitted-frontier links
    InFlight *frontNext = nullptr;
    bool inFrontier = false;
    bool inRob = false; //!< currently in the master ROB deque
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
