#include "trace/event_log.h"

namespace noreba {

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::None: return "none";
      case StallCause::Empty: return "empty-window";
      case StallCause::HeadBranch: return "head-branch";
      case StallCause::HeadMem: return "head-mem";
      case StallCause::HeadExec: return "head-exec";
      case StallCause::Fence: return "fence";
      case StallCause::Structural: return "structural";
      case StallCause::WidthExhausted: return "width-exhausted";
      case StallCause::NUM_CAUSES: break;
    }
    return "unknown";
}

std::vector<TraceEvent>
EventLog::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event: head_ when the ring has wrapped, 0 otherwise.
    size_t start = size_ == ring_.size() ? head_ : 0;
    for (size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

} // namespace noreba
