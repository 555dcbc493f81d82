#include "experiments.h"

#include <cstdio>

#include "common/stats.h"
#include "common/table.h"

namespace noreba::bench {

std::vector<std::string>
cqSweepWorkloads()
{
    return benchutil::selectedWorkloadsOr(
        {"mcf", "CRC32", "libquantum", "omnetpp", "bzip2", "astar"});
}

std::vector<std::string>
seriesOf(const std::vector<Column> &columns, size_t first)
{
    std::vector<std::string> out;
    for (size_t i = first; i < columns.size(); ++i)
        out.push_back(columns[i].series);
    return out;
}

CoreConfig
withMode(CoreConfig cfg, CommitMode mode)
{
    cfg.commitMode = mode;
    return cfg;
}

void
planColumns(ExperimentPlan &plan, const std::vector<std::string> &workloads,
            const std::vector<Column> &columns)
{
    for (const std::string &name : workloads)
        for (const Column &col : columns)
            plan.add(name, col.series, benchutil::job(name, col.cfg));
}

double
geomeanSpeedup(const ExperimentResults &r,
               const std::vector<std::string> &workloads,
               const std::string &base, const std::string &series)
{
    Geomean geo;
    for (const std::string &name : workloads)
        geo.sample(speedup(r.at(name, base), r.at(name, series)));
    return geo.value();
}

std::vector<double>
printSpeedupTable(const ExperimentResults &r,
                  const std::vector<std::string> &workloads,
                  const std::string &base,
                  const std::vector<std::string> &series,
                  std::vector<std::string> header)
{
    if (header.empty())
        header = series;
    header.insert(header.begin(), "benchmark");
    TextTable table;
    table.setHeader(header);
    for (const std::string &name : workloads) {
        std::vector<std::string> row{name};
        for (const std::string &s : series)
            row.push_back(
                fmtDouble(speedup(r.at(name, base), r.at(name, s)), 3));
        table.addRow(row);
    }
    std::vector<double> geo;
    std::vector<std::string> row{"geomean"};
    for (const std::string &s : series) {
        geo.push_back(geomeanSpeedup(r, workloads, base, s));
        row.push_back(fmtDouble(geo.back(), 3));
    }
    table.addRow(row);
    std::printf("%s\n", table.render().c_str());
    return geo;
}

void
registerAllExperiments()
{
    registerFig01Motivation();
    registerTab01Events();
    registerTab0203Configs();
    registerFig06Main();
    registerFig07CriticalBranches();
    registerFig08OooFraction();
    registerFig09CqSweepPerf();
    registerFig10CqSweepPower();
    registerFig11SetupOverhead();
    registerFig12CoreSizes();
    registerFig13Prefetching();
    registerFig14Ecl();
    registerFig15CommitWidth();
    registerFig16PowerArea();
    registerAblationDesign();
}

} // namespace noreba::bench
