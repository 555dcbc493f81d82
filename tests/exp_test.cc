/**
 * @file
 * Tests for the declarative experiment layer: plan handle uniqueness,
 * result lookup by (row, series), the registry's ordering and
 * duplicate-name guard, the driver's run/report wiring (including the
 * first-job event capture that replaced the old re-simulation), and
 * the environment knobs shared by every experiment — in particular
 * that an unknown NOREBA_WORKLOADS entry fails fast listing *every*
 * unknown name.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/driver.h"
#include "exp/env.h"
#include "exp/experiment.h"
#include "experiments.h"
#include "sim/result_store.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "store_test_util.h"
#include "uarch/config.h"

using namespace noreba;
using namespace noreba::bench;
using namespace noreba::test;

namespace {

constexpr uint64_t TEST_TRACE_LEN = 20000;

SweepJob
testJob(const std::string &workload, CommitMode mode)
{
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = mode;
    TraceOptions opts;
    opts.maxDynInsts = TEST_TRACE_LEN;
    return SweepJob{workload, cfg, opts};
}

TEST(ExperimentPlan, KeepsSubmissionOrderAndRejectsDuplicateHandles)
{
    ExperimentPlan plan;
    plan.add("mcf", "InO-C", testJob("mcf", CommitMode::InOrder));
    plan.add("mcf", "Noreba", testJob("mcf", CommitMode::Noreba));
    plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));

    ASSERT_EQ(plan.planned().size(), 3u);
    EXPECT_EQ(plan.planned()[0].row, "mcf");
    EXPECT_EQ(plan.planned()[0].series, "InO-C");
    EXPECT_EQ(plan.planned()[2].row, "CRC32");
    EXPECT_EQ(plan.planned()[2].job.workload, "CRC32");

    EXPECT_DEATH(plan.add("mcf", "InO-C",
                          testJob("mcf", CommitMode::InOrder)),
                 "duplicate");
}

TEST(ExperimentResults, LooksUpByHandleAndDiesOnUnknownOnes)
{
    ExperimentPlan plan;
    plan.add("mcf", "InO-C", testJob("mcf", CommitMode::InOrder));
    plan.add("mcf", "Noreba", testJob("mcf", CommitMode::Noreba));

    std::vector<SweepResult> sweep(2);
    sweep[0].job = plan.planned()[0].job;
    sweep[0].stats.cycles = 100;
    sweep[1].job = plan.planned()[1].job;
    sweep[1].stats.cycles = 60;

    ExperimentResults r(plan.planned(), sweep);
    EXPECT_EQ(r.at("mcf", "InO-C").cycles, 100u);
    EXPECT_EQ(r.at("mcf", "Noreba").cycles, 60u);

    EXPECT_DEATH(r.at("mcf", "SpeculativeFull"), "mcf");
    EXPECT_DEATH(r.at("bzip2", "InO-C"), "bzip2");
}

TEST(ExperimentResults, RejectsPlanResultSizeMismatch)
{
    ExperimentPlan plan;
    plan.add("mcf", "InO-C", testJob("mcf", CommitMode::InOrder));
    std::vector<SweepResult> sweep; // empty: one job planned, none run
    EXPECT_DEATH(ExperimentResults(plan.planned(), sweep), "");
}

TEST(ExperimentRegistry, RegistersInOrderAndRejectsDuplicateNames)
{
    // The registry is process-global; use names no real experiment
    // claims. (gtest death tests fork, so the EXPECT_DEATH below does
    // not pollute this process's registry.)
    const size_t before = experimentRegistry().size();

    ExperimentSpec a;
    a.name = "exp_test_alpha";
    a.title = "Alpha";
    registerExperiment(a);
    ExperimentSpec b;
    b.name = "exp_test_beta";
    b.title = "Beta";
    registerExperiment(b);

    ASSERT_EQ(experimentRegistry().size(), before + 2);
    EXPECT_EQ(experimentRegistry()[before].name, "exp_test_alpha");
    EXPECT_EQ(experimentRegistry()[before + 1].name, "exp_test_beta");

    const ExperimentSpec *found = findExperiment("exp_test_beta");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, "Beta");
    EXPECT_EQ(findExperiment("exp_test_nope"), nullptr);

    ExperimentSpec dup;
    dup.name = "exp_test_alpha";
    EXPECT_DEATH(registerExperiment(dup), "exp_test_alpha");
}

TEST(Driver, RunExperimentExecutesPlanAndHandsResultsToReport)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_JSON_DIR");
    unsetenv("NOREBA_EVENT_TRACE");

    ExperimentSpec spec;
    spec.name = "exp_test_driver";
    spec.title = "Driver wiring";
    spec.description = "two modes on one workload";
    spec.plan = [](ExperimentPlan &plan) {
        plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));
        plan.add("CRC32", "Noreba", testJob("CRC32", CommitMode::Noreba));
    };
    int reported = 0;
    spec.report = [&](const ExperimentResults &r) {
        ++reported;
        EXPECT_GT(r.at("CRC32", "InO-C").cycles, 0u);
        EXPECT_GT(r.at("CRC32", "Noreba").committedInsts, 0u);
        // Real simulations, not placeholders: Noreba commits OoO.
        EXPECT_GT(r.at("CRC32", "Noreba").committedOoO, 0u);
        EXPECT_EQ(r.at("CRC32", "InO-C").committedOoO, 0u);
    };
    runExperiment(spec, RunOptions{});
    EXPECT_EQ(reported, 1);
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Env, TraceLenDefaultsAndRejectsGarbage)
{
    unsetenv("NOREBA_TRACE_LEN");
    EXPECT_EQ(benchutil::traceLen(), 250000u);
    setenv("NOREBA_TRACE_LEN", "12345", 1);
    EXPECT_EQ(benchutil::traceLen(), 12345u);
    setenv("NOREBA_TRACE_LEN", "lots", 1);
    EXPECT_EXIT(benchutil::traceLen(), ::testing::ExitedWithCode(1), "");
    setenv("NOREBA_TRACE_LEN", "0", 1);
    EXPECT_EXIT(benchutil::traceLen(), ::testing::ExitedWithCode(1), "");
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Env, SelectedWorkloadsHonoursSubsetAndListsAllUnknownNames)
{
    unsetenv("NOREBA_WORKLOADS");
    const std::vector<std::string> all = benchutil::selectedWorkloads();
    EXPECT_GT(all.size(), 8u);
    EXPECT_EQ(benchutil::selectedWorkloadsOr({"astar"}),
              std::vector<std::string>{"astar"});

    setenv("NOREBA_WORKLOADS", "mcf,CRC32", 1);
    const std::vector<std::string> subset =
        benchutil::selectedWorkloads();
    ASSERT_EQ(subset.size(), 2u);
    EXPECT_EQ(subset[0], "mcf");
    EXPECT_EQ(subset[1], "CRC32");
    EXPECT_EQ(benchutil::selectedWorkloadsOr({"astar"}), subset);

    // Set but empty still overrides an experiment's default subset.
    setenv("NOREBA_WORKLOADS", "", 1);
    EXPECT_TRUE(benchutil::selectedWorkloadsOr({"astar"}).empty());

    // Every unknown name appears in one fatal message — a long
    // hand-typed list is fixed in one round trip.
    setenv("NOREBA_WORKLOADS", "mcf,mfc,crc32,CRC32", 1);
    EXPECT_EXIT(benchutil::selectedWorkloads(),
                ::testing::ExitedWithCode(1), "mfc.*crc32");
    unsetenv("NOREBA_WORKLOADS");
}

TEST(Env, SplitCommasKeepsOrderAndDropsEmptyFields)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(benchutil::splitCommas("fig06_main,all"),
              (V{"fig06_main", "all"}));
    EXPECT_EQ(benchutil::splitCommas(",mcf,,CRC32,"), (V{"mcf", "CRC32"}));
    EXPECT_TRUE(benchutil::splitCommas("").empty());
    EXPECT_TRUE(benchutil::splitCommas(",,").empty());
}

TEST(Env, JobCarriesTraceLenAndEventTraceKnobs)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_EVENT_TRACE");
    SweepJob off = benchutil::job("CRC32", skylakeConfig());
    EXPECT_EQ(off.workload, "CRC32");
    EXPECT_EQ(off.trace.maxDynInsts, 20000u);
    EXPECT_TRUE(off.trace.annotate);
    EXPECT_TRUE(resultStoreEligible(off.cfg));

    // Event tracing is an EventLog the driver attaches to the first
    // job, not part of the job: a traced sweep's jobs have the same
    // result-store identity as untraced ones and stay store-eligible.
    EXPECT_FALSE(benchutil::eventTraceEnabled());
    setenv("NOREBA_EVENT_TRACE", "1", 1);
    EXPECT_TRUE(benchutil::eventTraceEnabled());
    SweepJob traced = benchutil::job("CRC32", skylakeConfig());
    EXPECT_EQ(resultKey(traced.workload, traced.cfg, traced.trace),
              resultKey(off.workload, off.cfg, off.trace));
    EXPECT_TRUE(resultStoreEligible(traced.cfg));
    setenv("NOREBA_EVENT_TRACE", "0", 1);
    EXPECT_FALSE(benchutil::eventTraceEnabled());
    unsetenv("NOREBA_EVENT_TRACE");

    SweepJob stripped = benchutil::job("mcf", skylakeConfig(), true, true);
    EXPECT_TRUE(stripped.trace.stripSetups);
    unsetenv("NOREBA_TRACE_LEN");
}

// Driver resilience (--keep-going).

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(Driver, KeepGoingRecordsFailuresAndSkipsReport)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_EVENT_TRACE");
    TempDir dir("NOREBA_JSON_DIR");

    ExperimentSpec spec;
    spec.name = "exp_test_keepgoing";
    spec.title = "Failure isolation";
    spec.description = "every job dies, the run survives";
    spec.plan = [](ExperimentPlan &plan) {
        // An illegal config fails each job at validation.
        for (CommitMode mode : {CommitMode::InOrder, CommitMode::Noreba}) {
            SweepJob job = testJob("CRC32", mode);
            job.cfg.robEntries = 0;
            plan.add("CRC32", commitModeName(mode), job);
        }
    };
    // Shared, not captured by reference: the registered copy of the
    // spec outlives this test's frame.
    auto reported = std::make_shared<int>(0);
    spec.report = [reported](const ExperimentResults &) { ++*reported; };

    RunOptions opts;
    opts.keepGoing = true;
    EXPECT_EQ(runExperiment(spec, opts), 2u);
    // Reports divide by failed jobs' zeroed stats; they must not run.
    EXPECT_EQ(*reported, 0);

    const std::string json =
        slurp(dir.path + "/BENCH_exp_test_keepgoing.json");
    EXPECT_NE(json.find("\"failures\":"), std::string::npos);
    EXPECT_NE(json.find("\"site\": \"config.validate\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);

    // Without --keep-going the same failure propagates (exit-1 path).
    EXPECT_THROW(runExperiment(spec, RunOptions{}), std::exception);

    // The CLI maps both outcomes to exit codes: 3 for a partial
    // failure under --keep-going, 1 without it.
    if (!findExperiment(spec.name))
        registerExperiment(spec);
    auto bench = [](std::vector<std::string> args) {
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        return benchMain(static_cast<int>(argv.size()), argv.data());
    };
    EXPECT_EQ(bench({"noreba-bench", "--run", spec.name, "--keep-going"}),
              3);
    EXPECT_EQ(bench({"noreba-bench", "--run", spec.name}), 1);
    EXPECT_EQ(*reported, 0);
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Driver, EachJsonBlockCountsOnlyItsOwnExperimentsCacheWork)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_EVENT_TRACE");
    unsetenv("NOREBA_RESULT_DIR");
    TempDir dir("NOREBA_JSON_DIR");

    ExperimentSpec first;
    first.name = "exp_test_cache_first";
    first.title = "Cache counters, first";
    first.description = "two jobs";
    first.plan = [](ExperimentPlan &plan) {
        plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));
        plan.add("CRC32", "Noreba", testJob("CRC32", CommitMode::Noreba));
    };
    runExperiment(first, RunOptions{});

    // One job the first experiment ran, and one no other test runs.
    ExperimentSpec second;
    second.name = "exp_test_cache_second";
    second.title = "Cache counters, second";
    second.description = "one repeated job, one new";
    second.plan = [](ExperimentPlan &plan) {
        plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));
        SweepJob fresh = testJob("CRC32", CommitMode::ValidationBuffer);
        fresh.cfg.robEntries -= 3;
        plan.add("CRC32", "fresh", fresh);
    };
    runExperiment(second, RunOptions{});

    std::string err;
    const JsonValue doc = JsonValue::parse(
        slurp(dir.path + "/BENCH_exp_test_cache_second.json"), &err);
    ASSERT_TRUE(doc.isObject()) << err;
    const JsonValue *sim = doc.find("simCache");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->find("simBuilds")->asUint(), 1u);
    EXPECT_EQ(sim->find("memHits")->asUint(), 1u);
    EXPECT_EQ(sim->find("diskHits")->asUint(), 0u);
    const JsonValue *traces = doc.find("traceCache");
    ASSERT_NE(traces, nullptr);
    // The one bundle was built by the first experiment.
    EXPECT_EQ(traces->find("builds")->asUint(), 0u);
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Registrants, AllFifteenPaperExperimentsRegisterUniquely)
{
    // experimentRegistry() already holds whatever earlier tests added;
    // the real registrants must all be present exactly once after
    // registerAllExperiments() — which benchMain() runs via the bench
    // binary. Here we only check the names the CLI contract promises.
    // (Registration itself is covered by the driver smoke in CI.)
    const char *expected[] = {
        "fig01_motivation",      "tab01_events",
        "tab02_03_configs",      "fig06_main",
        "fig07_critical_branches", "fig08_ooo_fraction",
        "fig09_cq_sweep_perf",   "fig10_cq_sweep_power",
        "fig11_setup_overhead",  "fig12_core_sizes",
        "fig13_prefetching",     "fig14_ecl",
        "fig15_commit_width",    "fig16_power_area",
        "ablation_design",
    };
    registerAllExperiments();
    size_t at = 0;
    for (const ExperimentSpec &spec : experimentRegistry()) {
        if (at < std::size(expected) && spec.name == expected[at])
            ++at;
    }
    EXPECT_EQ(at, std::size(expected))
        << "paper experiments missing or out of order";
    for (const char *name : expected) {
        const ExperimentSpec *spec = findExperiment(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_FALSE(spec->title.empty()) << name;
        EXPECT_FALSE(spec->description.empty()) << name;
    }
}

TEST(Registrants, Fig11ReportRunsOnOneWorkload)
{
    // The report re-fetches each bundle's trace summary after the
    // sweep; running it end to end lets the sanitizer builds check
    // that lookup as well as the sweep.
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    setenv("NOREBA_WORKLOADS", "CRC32", 1);
    unsetenv("NOREBA_JSON_DIR");
    unsetenv("NOREBA_EVENT_TRACE");
    // Registrants.* may have registered every experiment already.
    if (!findExperiment("fig11_setup_overhead"))
        registerAllExperiments();
    const ExperimentSpec *spec = findExperiment("fig11_setup_overhead");
    ASSERT_NE(spec, nullptr);
    testing::internal::CaptureStdout();
    runExperiment(*spec, RunOptions{});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("CRC32"), std::string::npos) << out;
    EXPECT_NE(out.find("geomean performance overhead"), std::string::npos)
        << out;
    unsetenv("NOREBA_WORKLOADS");
    unsetenv("NOREBA_TRACE_LEN");
}

} // namespace
