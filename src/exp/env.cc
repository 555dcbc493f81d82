#include "exp/env.h"

#include <cerrno>
#include <cstdlib>
#include <unordered_set>

#include "common/logging.h"

namespace noreba::benchutil {

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= list.size()) {
        size_t end = list.find(',', start);
        if (end == std::string::npos)
            end = list.size();
        if (end > start)
            out.push_back(list.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

uint64_t
traceLen()
{
    const char *env = std::getenv("NOREBA_TRACE_LEN");
    if (!env || !*env)
        return 250000ull;
    errno = 0;
    char *end = nullptr;
    long long parsed = std::strtoll(env, &end, 10);
    fatal_if(errno != 0 || end == env || *end != '\0' || parsed <= 0,
             "NOREBA_TRACE_LEN=\"%s\" is not a positive integer", env);
    return static_cast<uint64_t>(parsed);
}

std::vector<std::string>
selectedWorkloads()
{
    const char *env = std::getenv("NOREBA_WORKLOADS");
    if (!env)
        return workloadNames();
    const std::vector<std::string> out = splitCommas(env);
    // One pass over the registry builds the membership set; each name
    // is then an O(1) probe instead of a rescan of the registry.
    std::unordered_set<std::string> known;
    for (const auto &desc : workloadRegistry())
        known.insert(desc.name);
    std::string unknown;
    for (const auto &name : out) {
        if (known.count(name))
            continue;
        if (!unknown.empty())
            unknown += ", ";
        unknown += name;
    }
    if (!unknown.empty()) {
        std::string all;
        for (const auto &desc : workloadRegistry()) {
            if (!all.empty())
                all += ", ";
            all += desc.name;
        }
        fatal("NOREBA_WORKLOADS names unknown workload(s): %s (known: %s)",
              unknown.c_str(), all.c_str());
    }
    // Zero workloads would print empty tables and zero geomeans and
    // still exit 0.
    if (out.empty())
        fatal("NOREBA_WORKLOADS=\"%s\" names no workload", env);
    return out;
}

std::vector<std::string>
selectedWorkloadsOr(std::vector<std::string> fallback)
{
    if (std::getenv("NOREBA_WORKLOADS"))
        return selectedWorkloads();
    return fallback;
}

std::vector<std::string>
specWorkloads()
{
    std::vector<std::string> out;
    for (const auto &desc : workloadRegistry())
        if (desc.suite == "spec")
            out.push_back(desc.name);
    return out;
}

TraceOptions
traceOptions(bool annotate, bool stripSetups)
{
    TraceOptions opts;
    opts.maxDynInsts = traceLen();
    opts.annotate = annotate;
    opts.stripSetups = stripSetups;
    return opts;
}

std::shared_ptr<const TraceBundle>
bundleFor(const std::string &name, bool annotate, bool stripSetups)
{
    return globalBundleCache().get(name,
                                   traceOptions(annotate, stripSetups));
}

bool
eventTraceEnabled()
{
    const char *env = std::getenv("NOREBA_EVENT_TRACE");
    return env && *env && std::string(env) != "0";
}

SweepJob
job(const std::string &workload, const CoreConfig &cfg, bool annotate,
    bool stripSetups)
{
    return SweepJob{workload, cfg, traceOptions(annotate, stripSetups)};
}

} // namespace noreba::benchutil
