#include "ir/diagnostics.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace noreba {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

std::string
SourceLoc::toString() const
{
    if (block < 0)
        return "<program>";
    std::string s = blockLabel;
    if (s.empty()) {
        s = "bb";
        s += std::to_string(block);
    }
    if (instIdx >= 0) {
        s += ':';
        s += std::to_string(instIdx);
    }
    return s;
}

std::string
Finding::toString() const
{
    return std::string(severityName(severity)) + " [" + rule + "] " +
           loc.toString() + ": " + message;
}

void
Diagnostics::add(Severity severity, const std::string &rule,
                 const SourceLoc &loc, const std::string &message)
{
    // Dedupe at the source so severity/rule counts stay consistent
    // with the rendered report: an identical finding (same rule,
    // location, severity, and message) is recorded once.
    for (const Finding &f : findings_)
        if (f.severity == severity && f.rule == rule &&
            f.loc.block == loc.block && f.loc.instIdx == loc.instIdx &&
            f.loc.blockLabel == loc.blockLabel && f.message == message)
            return;
    findings_.push_back({severity, rule, loc, message});
    ++byRule_[rule];
    switch (severity) {
      case Severity::Error: ++errors_; break;
      case Severity::Warning: ++warnings_; break;
      case Severity::Note: ++notes_; break;
    }
}

std::vector<Finding>
Diagnostics::sortedFindings() const
{
    std::vector<Finding> sorted = findings_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Finding &a, const Finding &b) {
                         return std::tie(a.rule, a.loc.block,
                                         a.loc.instIdx, a.message) <
                                std::tie(b.rule, b.loc.block,
                                         b.loc.instIdx, b.message);
                     });
    return sorted;
}

bool
Diagnostics::hasRule(const std::string &rule) const
{
    return byRule_.count(rule) > 0;
}

std::string
Diagnostics::verdict() const
{
    if (errors_ == 0 && warnings_ == 0)
        return "clean";
    std::ostringstream os;
    os << errors_ << " error(s), " << warnings_ << " warning(s)";
    return os.str();
}

std::string
Diagnostics::toText() const
{
    std::ostringstream os;
    for (const Finding &f : sortedFindings()) {
        if (!unit_.empty())
            os << unit_ << ": ";
        os << f.toString() << '\n';
    }
    if (!unit_.empty())
        os << unit_ << ": ";
    os << verdict() << '\n';
    return os.str();
}

JsonValue
Diagnostics::toJson() const
{
    JsonValue out = JsonValue::object();
    out.set("unit", unit_);
    out.set("errors", errors_);
    out.set("warnings", warnings_);
    out.set("notes", notes_);
    JsonValue byRule = JsonValue::object();
    for (const auto &[rule, count] : byRule_)
        byRule.set(rule, count);
    out.set("byRule", std::move(byRule));
    JsonValue arr = JsonValue::array();
    for (const Finding &f : sortedFindings()) {
        JsonValue j = JsonValue::object();
        j.set("severity", severityName(f.severity));
        j.set("rule", f.rule);
        j.set("block", f.loc.block);
        j.set("blockLabel", f.loc.blockLabel);
        j.set("inst", f.loc.instIdx);
        j.set("message", f.message);
        arr.push(std::move(j));
    }
    out.set("findings", std::move(arr));
    return out;
}

} // namespace noreba
