#include "exp/experiment.h"

#include "common/logging.h"

namespace noreba::bench {

void
ExperimentPlan::add(const std::string &row, const std::string &series,
                    SweepJob job)
{
    fatal_if(!used_.emplace(row, series).second,
             "experiment plan: duplicate handle (%s, %s)", row.c_str(),
             series.c_str());
    planned_.push_back({row, series, std::move(job)});
}

ExperimentResults::ExperimentResults(const std::vector<PlannedJob> &plan,
                                     std::vector<SweepResult> results)
    : results_(std::move(results))
{
    panic_if(plan.size() != results_.size(),
             "experiment: %zu planned jobs but %zu results", plan.size(),
             results_.size());
    for (size_t i = 0; i < plan.size(); ++i)
        index_.emplace(std::make_pair(plan[i].row, plan[i].series), i);
}

const CoreStats &
ExperimentResults::at(const std::string &row,
                      const std::string &series) const
{
    auto it = index_.find(std::make_pair(row, series));
    fatal_if(it == index_.end(),
             "experiment report reads unplanned handle (%s, %s)",
             row.c_str(), series.c_str());
    return results_[it->second].stats;
}

namespace {

std::vector<ExperimentSpec> &
mutableRegistry()
{
    static std::vector<ExperimentSpec> registry;
    return registry;
}

} // namespace

void
registerExperiment(ExperimentSpec spec)
{
    fatal_if(findExperiment(spec.name) != nullptr,
             "duplicate experiment \"%s\"", spec.name.c_str());
    mutableRegistry().push_back(std::move(spec));
}

const std::vector<ExperimentSpec> &
experimentRegistry()
{
    return mutableRegistry();
}

const ExperimentSpec *
findExperiment(const std::string &name)
{
    for (const ExperimentSpec &spec : mutableRegistry())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

} // namespace noreba::bench
