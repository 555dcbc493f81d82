/**
 * @file
 * Tests for the pipeline event-tracing subsystem: the EventLog ring,
 * the commit-stall attribution invariants (every cycle charged to
 * exactly one cause, across the full workload registry and every
 * commit mode), bit-identity of CoreStats with tracing on vs off, and
 * the Chrome-trace exporter's schema (round-tripped through the
 * repo's own JSON parser).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "sim/sweep.h"
#include "test_util.h"
#include "trace/chrome_trace.h"
#include "trace/event_log.h"
#include "uarch/stats.h"

using namespace noreba;

namespace {

const CommitMode ALL_MODES[] = {
    CommitMode::InOrder,       CommitMode::NonSpecOoO,
    CommitMode::Noreba,        CommitMode::IdealReconv,
    CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
    CommitMode::ValidationBuffer,
};

/**
 * The attribution contract: the six cause counters partition the stall
 * cycles, and stall + full-width cycles partition total cycles. The
 * core also panics on violation (uarch/core.cc), so this asserts the
 * same property externally, on the returned stats.
 */
void
expectPartition(const CoreStats &s, const std::string &label)
{
    const uint64_t causes = s.stallEmptyCycles + s.stallHeadBranchCycles +
                            s.stallHeadMemCycles + s.stallHeadExecCycles +
                            s.stallFenceCycles + s.stallStructuralCycles;
    EXPECT_EQ(causes, s.commitStallCycles) << label;
    EXPECT_EQ(s.commitStallCycles + s.commitWidthFullCycles, s.cycles)
        << label;
}

TEST(EventLog, RingOverwritesOldestAndCountsDrops)
{
    EventLog log(4);
    EXPECT_EQ(log.capacity(), 4u);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.dropped(), 0u);

    for (uint64_t c = 0; c < 10; ++c)
        log.emit(c, TraceEventType::Fetch, static_cast<TraceIdx>(c),
                 1000 + c);
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.totalEmitted(), 10u);
    EXPECT_EQ(log.dropped(), 6u);

    // snapshot() is oldest-first over the retained suffix.
    std::vector<TraceEvent> events = log.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].cycle, 6 + i);
        EXPECT_EQ(events[i].pc, 1006 + i);
        EXPECT_EQ(events[i].type, TraceEventType::Fetch);
    }

    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.totalEmitted(), 0u);
    EXPECT_TRUE(log.snapshot().empty());
}

TEST(EventLog, ZeroCapacityClampsToOne)
{
    EventLog log(0);
    EXPECT_EQ(log.capacity(), 1u);
    log.emit(1, TraceEventType::Commit, 0, 0x40);
    log.emit(2, TraceEventType::Commit, 1, 0x44);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.snapshot()[0].cycle, 2u);
    EXPECT_EQ(log.dropped(), 1u);
}

TEST(EventNames, CoverEveryEnumerator)
{
    EXPECT_STREQ(stallCauseName(StallCause::Empty), "empty-window");
    EXPECT_STREQ(stallCauseName(StallCause::HeadBranch), "head-branch");
    EXPECT_STREQ(stallCauseName(StallCause::Structural), "structural");
    EXPECT_STREQ(stallCauseName(StallCause::WidthExhausted),
                 "width-exhausted");
}

// The headline invariant, at full breadth: every workload in the
// registry under every commit mode. Short traces keep the 140-job
// cross product fast; the sweep runs it in parallel.
TEST(StallAttribution, PartitionsCyclesAcrossRegistryAndModes)
{
    TraceOptions opts;
    opts.maxDynInsts = 8000;
    std::vector<SweepJob> jobs;
    for (const auto &desc : workloadRegistry()) {
        for (CommitMode mode : ALL_MODES) {
            CoreConfig cfg = skylakeConfig();
            cfg.commitMode = mode;
            jobs.push_back(SweepJob{desc.name, cfg, opts});
        }
    }
    BundleCache cache;
    std::vector<SweepResult> results = SweepRunner(8, &cache).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const SweepResult &r : results) {
        expectPartition(r.stats,
                        r.job.workload + "/" +
                            commitModeName(r.job.cfg.commitMode));
        EXPECT_GT(r.stats.cycles, 0u) << r.job.workload;
    }
}

TEST(StallAttribution, HoldsWithEarlyCommitLoads)
{
    Program prog = testutil::delinquentLoop(1500);
    testutil::Prepared p = testutil::prepare(prog);
    for (CommitMode mode : {CommitMode::Noreba, CommitMode::IdealReconv}) {
        CoreConfig cfg = skylakeConfig();
        cfg.earlyCommitLoads = true;
        CoreStats s = testutil::run(p, mode, cfg);
        expectPartition(s, std::string("ECL/") + commitModeName(mode));
    }
}

// Sanity on the taxonomy itself: the delinquent loop blocks in-order
// commit behind its data-dependent branch and its missing loads, so
// both the branch bucket and the memory/execute buckets must be
// populated (and dominate idle-frontend noise).
TEST(StallAttribution, DelinquentLoopChargesBranchAndMemory)
{
    Program prog = testutil::delinquentLoop(3000);
    testutil::Prepared p = testutil::prepare(prog);
    CoreStats s = testutil::run(p, CommitMode::InOrder);
    expectPartition(s, "delinquent/InOrder");
    EXPECT_GT(s.commitStallCycles, 0u);
    EXPECT_GT(s.stallHeadBranchCycles, 0u);
    EXPECT_GT(s.stallHeadMemCycles + s.stallHeadExecCycles, 0u);
}

// Turning tracing on must not perturb a single counter: the emission
// sites read pipeline state but never write stats. Compares every
// CORE_STATS_FIELDS entry so a future counter is covered automatically.
TEST(EventTrace, StatsBitIdenticalWithTracingOnAndOff)
{
    TraceOptions opts;
    opts.maxDynInsts = 20000;
    TraceBundle bundle = prepareTrace("mcf", opts);
    for (CommitMode mode : ALL_MODES) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        CoreStats plain = simulate(cfg, bundle);
        EventLog log;
        CoreStats traced = simulate(cfg, bundle, &log);
        EXPECT_GT(log.totalEmitted(), 0u) << commitModeName(mode);
        for (const CoreStatsField &f : CORE_STATS_FIELDS) {
            if (f.counter)
                EXPECT_EQ(plain.*f.counter, traced.*f.counter)
                    << commitModeName(mode) << ": " << f.name;
            else
                EXPECT_EQ(f.derived(plain), f.derived(traced))
                    << commitModeName(mode) << ": " << f.name;
        }
    }
}

TEST(EventTrace, CoreEmitsEveryMilestoneKind)
{
    Program prog = testutil::delinquentLoop(2000);
    testutil::Prepared p = testutil::prepare(prog);
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::InOrder;
    EventLog log(size_t{1} << 20); // wide enough to retain everything
    Core core(cfg, p.trace, p.misp);
    core.observe(&log);
    CoreStats s = core.run();
    EXPECT_EQ(log.dropped(), 0u);

    uint64_t commits = 0, fetches = 0, stalls = 0, squashes = 0;
    for (const TraceEvent &ev : log.snapshot()) {
        switch (ev.type) {
          case TraceEventType::Fetch: ++fetches; break;
          case TraceEventType::Commit: ++commits; break;
          case TraceEventType::Squash: ++squashes; break;
          case TraceEventType::CommitStall:
            ++stalls;
            // Stall records carry one of the six charged causes.
            EXPECT_NE(ev.cause, StallCause::None);
            EXPECT_NE(ev.cause, StallCause::WidthExhausted);
            EXPECT_LT(static_cast<int>(ev.cause),
                      static_cast<int>(StallCause::NUM_CAUSES));
            break;
          default: break;
        }
    }
    EXPECT_EQ(stalls, s.commitStallCycles);
    EXPECT_EQ(squashes, s.squashes);
    EXPECT_GE(fetches, s.committedInsts);
    EXPECT_GT(commits, 0u);
}

TEST(ChromeTrace, ExportRoundTripsThroughOwnParser)
{
    TraceOptions opts;
    opts.maxDynInsts = 10000;
    TraceBundle bundle = prepareTrace("CRC32", opts);
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    EventLog log;
    simulate(cfg, bundle, &log);
    ASSERT_GT(log.size(), 0u);

    JsonValue doc = chromeTraceJson(log, "CRC32/Noreba");
    std::string err;
    JsonValue parsed = JsonValue::parse(doc.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(parsed.isObject());

    const JsonValue *events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->size(), 4u); // metadata + real events

    size_t slices = 0, instants = 0, meta = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        const std::string &kind = ph->asString();
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (kind == "X") {
            ++slices;
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            EXPECT_GE(e.find("dur")->asUint(), 1u);
        } else if (kind == "i") {
            ++instants;
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("s"), nullptr);
        } else {
            EXPECT_EQ(kind, "M");
            ++meta;
        }
    }
    EXPECT_GT(slices, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_EQ(meta, 4u);

    const JsonValue *other = parsed.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("retainedEvents")->asUint(), log.size());
    EXPECT_EQ(other->find("droppedEvents")->asUint(), log.dropped());
}

TEST(ChromeTrace, WriteProducesParseableFile)
{
    EventLog log(16);
    log.emit(1, TraceEventType::Fetch, 0, 0x100);
    log.emit(5, TraceEventType::Commit, 0, 0x100);
    log.emit(6, TraceEventType::CommitStall, TRACE_NONE, 0,
             StallCause::Empty);

    std::string path = ::testing::TempDir() + "chrome_trace_test.json";
    writeChromeTrace(path, log, "synthetic");

    std::string text;
    {
        FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    std::string err;
    JsonValue parsed = JsonValue::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    const JsonValue *events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // 4 metadata + 1 slice + 1 stall instant.
    EXPECT_EQ(events->size(), 6u);
    std::remove(path.c_str());
}

} // namespace
