#include "exp/driver.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/logging.h"
#include "exp/env.h"
#include "trace/chrome_trace.h"
#include "trace/event_log.h"

namespace noreba::bench {

namespace {

/**
 * If NOREBA_JSON_DIR is set, dump the experiment's machine-readable
 * record as <dir>/BENCH_<name>.json: {"bench", "traceLen",
 * "traceCache", "simCache", "results": [...]} with one entry per job
 * in sweep order (see sweepResultToJson). "traceCache" and "simCache"
 * count what this experiment did in the global caches since the
 * snapshots @p bundlesBefore and @p simsBefore, not the process's
 * totals — a warm NOREBA_RESULT_DIR run shows simBuilds == 0 (nothing
 * simulated). Timing lives in perf/, not here, so a record depends
 * only on what was simulated.
 *
 * With NOREBA_EVENT_TRACE on and the first job successful, that job
 * is simulated again with an EventLog attached: TRACE_<name>.json.
 */
void
maybeWriteJson(const ExperimentSpec &spec,
               const std::vector<SweepResult> &results,
               const BundleCacheStats &bundlesBefore,
               const SimCacheStats &simsBefore)
{
    const char *dir = std::getenv("NOREBA_JSON_DIR");
    if (!dir || !*dir)
        return;
    // Table-only experiments (an empty plan) have no records worth a
    // file, and a zero-record JSON would trip
    // `noreba-stats-diff --expect-equal` in CI.
    if (results.empty())
        return;
    JsonValue doc = JsonValue::object();
    doc.set("bench", spec.name)
        .set("traceLen", benchutil::traceLen())
        .set("traceCache", bundleCacheStatsToJson(
                               globalBundleCache().stats() - bundlesBefore))
        .set("simCache", simCacheStatsToJson(globalResultCache().stats() -
                                             simsBefore))
        .set("results", sweepToJson(results));
    // The extra keys appear only on runs that had failures, so a clean
    // run's JSON stays byte-identical to what it was before this
    // machinery existed.
    size_t numFailed = 0;
    for (const SweepResult &r : results)
        if (!r.ok)
            ++numFailed;
    if (numFailed) {
        JsonValue failures = JsonValue::array();
        for (const SweepResult &r : results) {
            if (r.ok)
                continue;
            JsonValue f = JsonValue::object();
            f.set("workload", r.job.workload)
                .set("config", r.job.cfg.name)
                .set("site", r.failure.site)
                .set("what", r.failure.what);
            failures.push(std::move(f));
        }
        doc.set("failures", std::move(failures));
    }
    std::string path = std::string(dir) + "/BENCH_" + spec.name + ".json";
    writeJsonFile(path, doc);
    std::printf("wrote %s (%zu records)\n", path.c_str(), results.size());

    if (benchutil::eventTraceEnabled() && results.front().ok) {
        const SweepJob &first = results.front().job;
        EventLog log;
        simulate(first.cfg,
                 *globalBundleCache().get(first.workload, first.trace),
                 &log);
        std::string label = first.workload + "/" +
                            commitModeName(first.cfg.commitMode);
        std::string tracePath =
            std::string(dir) + "/TRACE_" + spec.name + ".json";
        writeChromeTrace(tracePath, log, label);
        std::printf("wrote %s (%zu events, %llu dropped)\n",
                    tracePath.c_str(), log.size(),
                    static_cast<unsigned long long>(log.dropped()));
    }
}

/** Header printed before every experiment (old bench_util format). */
void
printHeader(const ExperimentSpec &spec)
{
    std::printf("==============================================================\n");
    std::printf("NOREBA reproduction — %s\n", spec.title.c_str());
    std::printf("%s\n", spec.description.c_str());
    std::printf("trace length: %llu dynamic instructions per workload\n",
                static_cast<unsigned long long>(benchutil::traceLen()));
    std::printf("==============================================================\n");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --list | --run <name|all>[,<name>...] "
                 "[--run ...] [--json-dir <dir>] [--jobs <n>] "
                 "[--keep-going]\n",
                 argv0);
    return 2;
}

int
unknownExperiment(const std::string &name)
{
    std::fprintf(stderr, "unknown experiment \"%s\"; known experiments:\n",
                 name.c_str());
    for (const ExperimentSpec &spec : experimentRegistry())
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
    return 2;
}

} // namespace

size_t
runExperiment(const ExperimentSpec &spec, const RunOptions &opts)
{
    printHeader(spec);

    ExperimentPlan plan;
    if (spec.plan)
        spec.plan(plan);
    std::vector<SweepJob> jobs;
    jobs.reserve(plan.planned().size());
    for (const PlannedJob &p : plan.planned())
        jobs.push_back(p.job);

    const BundleCacheStats bundlesBefore = globalBundleCache().stats();
    const SimCacheStats simsBefore = globalResultCache().stats();
    SweepRunner runner;
    const std::vector<SweepResult> results =
        runner.run(jobs, opts.keepGoing ? FailurePolicy::Isolate
                                        : FailurePolicy::Propagate);

    size_t numFailed = 0;
    for (const SweepResult &r : results)
        if (!r.ok)
            ++numFailed;

    if (numFailed) {
        // A failed job's stats are zeroed; reports divide by them
        // (speedup panics on zero baseline cycles), so the tables are
        // skipped and the failures land in the JSON record instead.
        warn("%s: %zu of %zu jobs failed; skipping report tables",
             spec.name.c_str(), numFailed, results.size());
    } else if (spec.report) {
        ExperimentResults expResults(plan.planned(), results);
        spec.report(expResults);
    }

    maybeWriteJson(spec, results, bundlesBefore, simsBefore);
    return numFailed;
}

int
benchMain(int argc, char **argv)
{
    bool list = false;
    RunOptions opts;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--run") {
            if (++i >= argc)
                return usage(argv[0]);
            for (const std::string &name : benchutil::splitCommas(argv[i]))
                names.push_back(name);
        } else if (arg == "--json-dir") {
            if (++i >= argc)
                return usage(argv[0]);
            ::setenv("NOREBA_JSON_DIR", argv[i], 1);
        } else if (arg == "--jobs") {
            if (++i >= argc)
                return usage(argv[0]);
            ::setenv("NOREBA_JOBS", argv[i], 1);
        } else if (arg == "--keep-going") {
            opts.keepGoing = true;
        } else {
            std::fprintf(stderr, "unknown option \"%s\"\n", arg.c_str());
            return usage(argv[0]);
        }
    }

    if (list) {
        for (const ExperimentSpec &spec : experimentRegistry())
            std::printf("%-24s %s\n", spec.name.c_str(),
                        spec.title.c_str());
        return 0;
    }
    if (names.empty())
        return usage(argv[0]);

    // Create the output directory before any simulation: a mistyped
    // path must fail in milliseconds, not after the sweep.
    const char *jsonDir = std::getenv("NOREBA_JSON_DIR");
    if (jsonDir && *jsonDir && !ensureDir(jsonDir)) {
        std::fprintf(stderr, "cannot create json dir \"%s\"\n", jsonDir);
        return 2;
    }

    // Validate every name before running anything: a typo at position
    // N must not cost N-1 experiments of simulation first.
    std::vector<const ExperimentSpec *> selected;
    for (const std::string &name : names) {
        if (name == "all") {
            for (const ExperimentSpec &spec : experimentRegistry())
                selected.push_back(&spec);
            continue;
        }
        const ExperimentSpec *spec = findExperiment(name);
        if (!spec)
            return unknownExperiment(name);
        selected.push_back(spec);
    }

    size_t totalFailed = 0;
    for (const ExperimentSpec *spec : selected) {
        try {
            totalFailed += runExperiment(*spec, opts);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "experiment %s failed: %s\n",
                         spec->name.c_str(), e.what());
            if (!opts.keepGoing)
                return 1;
            // The whole experiment is one failure; keep running the
            // rest of the selection.
            ++totalFailed;
        }
    }
    if (totalFailed) {
        std::fprintf(stderr, "%zu job(s) failed; see the failures "
                     "records in the BENCH_*.json output\n", totalFailed);
        return 3;
    }
    return 0;
}

} // namespace noreba::bench
