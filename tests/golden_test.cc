/**
 * @file
 * Golden CoreStats digests: the registry's results, pinned in the tree.
 *
 * Golden.StatsDigests runs every registry experiment's plan in process
 * at 20000 instructions and digests its records, in plan order, with
 * 64-bit FNV-1a over each record's resultKey, every CORE_STATS_FIELDS
 * counter and the branchStalls map sorted by PC. golden/stats_digests.txt
 * holds one line per experiment with a non-empty plan (name, record
 * count, digest); golden/stats_records.txt holds the same digest per
 * record, so a mismatch names the first record that moved.
 *
 * The run uses fresh BundleCache/ResultCache instances with no disk
 * stores and clears every NOREBA_* variable first, so neither a warm
 * store nor the caller's environment can stand in for a simulation.
 * A change that is meant to move results commits the replacement
 * files this test prints on a mismatch.
 *
 * Golden.ReportDigests pins the printed tables: the same run hands each
 * experiment's results (tab02_03 included, whose plan is empty) to its
 * report with stdout captured, and golden/report_digests.txt holds one
 * line per experiment (name, byte count, FNV-1a of the text). A
 * mismatch prints the new text of every experiment that moved.
 *
 * Golden.TraceDigests pins the prepared traces themselves, across
 * trees: golden/trace_digests.txt holds one line per registry program
 * (seed 42, annotated, 20000 instructions) with its record and static
 * counts and FNV-1a over the data segments, every field of every
 * composed TraceRecord, the static table, the dynamic records, the
 * misprediction verdicts and regChecksum(). composed= reads the trace
 * as its consumers do, so a change to the stored format alone moves
 * static_table= and dyn= and leaves it as it was. A mismatch names the
 * program and the first section that differs. The
 * lines are built as a caller that keeps its program builds them (the
 * interpreter copies it, and data= digests the program afterwards);
 * each is built again through prepareTrace(), which moves the program
 * into the interpreter as the stores and sweeps do, and must match.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "compiler/branch_dep.h"
#include "exp/experiment.h"
#include "experiments.h"
#include "interp/interpreter.h"
#include "sim/result_store.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "uarch/branch_predictor.h"
#include "workloads/workloads.h"

extern char **environ;

using namespace noreba;
using namespace noreba::bench;

namespace {

constexpr const char *GOLDEN_TRACE_LEN = "20000";
constexpr uint64_t GOLDEN_TRACE_INSTS = 20000;

/** Fold one record into @p h: its key, counters and stall map. */
uint64_t
hashRecord(const SweepResult &r, uint64_t h)
{
    h = fnv1a(resultKey(r.job.workload, r.job.cfg, r.job.trace), h);
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (!f.counter)
            continue;
        const uint64_t v = r.stats.*f.counter;
        h = fnv1a(&v, sizeof(v), h);
    }
    std::vector<std::pair<uint64_t, BranchStall>> stalls(
        r.stats.branchStalls.begin(), r.stats.branchStalls.end());
    std::sort(stalls.begin(), stalls.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (const auto &[pc, s] : stalls) {
        for (uint64_t v : {pc, s.stallCycles, s.instances, s.dependents})
            h = fnv1a(&v, sizeof(v), h);
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The digest files' contents, one line per experiment or record. */
struct Golden
{
    std::vector<std::string> experiments;
    std::vector<std::string> records;
    std::vector<std::string> reports;
    std::map<std::string, std::string> reportText; //!< by experiment
};

/** The non-empty lines of @p path. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            out.push_back(line);
    return out;
}

/** Registry results at GOLDEN_TRACE_LEN; see the file comment. */
Golden
computeGolden()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string var = *e;
        if (var.rfind("NOREBA_", 0) == 0)
            names.push_back(var.substr(0, var.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("NOREBA_TRACE_LEN", GOLDEN_TRACE_LEN, 1);

    registerAllExperiments();
    BundleCache bundles;
    ResultCache results;
    SweepRunner runner(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u),
        &bundles, &results);

    Golden out;
    for (const ExperimentSpec &spec : experimentRegistry()) {
        ExperimentPlan plan;
        if (spec.plan)
            spec.plan(plan);
        std::vector<SweepJob> jobs;
        for (const PlannedJob &p : plan.planned())
            jobs.push_back(p.job);
        const std::vector<SweepResult> res = runner.run(jobs);
        if (spec.report) {
            testing::internal::CaptureStdout();
            spec.report(ExperimentResults(plan.planned(), res));
            const std::string text = testing::internal::GetCapturedStdout();
            out.reports.push_back(spec.name + " " +
                                  std::to_string(text.size()) + " " +
                                  hex(fnv1a(text)));
            out.reportText[spec.name] = text;
        }
        if (plan.planned().empty())
            continue;
        uint64_t digest = fnv1a(nullptr, 0);
        for (size_t i = 0; i < res.size(); ++i) {
            digest = hashRecord(res[i], digest);
            const PlannedJob &p = plan.planned()[i];
            const uint64_t own = hashRecord(res[i], fnv1a(nullptr, 0));
            out.records.push_back(spec.name + " " + std::to_string(i) +
                                  " " + hex(own) + " " + p.row + "/" +
                                  p.series);
        }
        out.experiments.push_back(spec.name + " " +
                                  std::to_string(res.size()) + " " +
                                  hex(digest));
    }
    return out;
}

/** computeGolden(), run once per process: registration is one-shot. */
const Golden &
golden()
{
    static const Golden g = computeGolden();
    return g;
}

/** First token of a line: the experiment name. */
std::string
experimentOf(const std::string &line)
{
    return line.substr(0, line.find(' '));
}

std::string
joined(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

TEST(Golden, StatsDigests)
{
    const std::string dir = GOLDEN_DIR;
    Golden want;
    want.experiments = readLines(dir + "/stats_digests.txt");
    want.records = readLines(dir + "/stats_records.txt");
    const Golden &got = golden();
    if (got.experiments == want.experiments && got.records == want.records)
        return;

    std::map<std::string, std::string> wantLine;
    for (const std::string &l : want.experiments)
        wantLine[experimentOf(l)] = l;
    std::map<std::string, std::vector<std::string>> gotRecords, wantRecords;
    for (const std::string &r : got.records)
        gotRecords[experimentOf(r)].push_back(r);
    for (const std::string &r : want.records)
        wantRecords[experimentOf(r)].push_back(r);

    std::ostringstream report;
    for (const std::string &line : got.experiments) {
        const std::string name = experimentOf(line);
        const auto &now = gotRecords[name];
        const auto &old = wantRecords[name];
        auto golden = wantLine.find(name);
        const bool known = golden != wantLine.end();
        if (known && golden->second == line && now == old) {
            wantLine.erase(golden);
            continue;
        }
        report << "moved: " << line
               << "\n  golden: " << (known ? golden->second : "absent")
               << "\n";
        auto [a, b] = std::mismatch(now.begin(), now.end(), old.begin(),
                                    old.end());
        if (a != now.end())
            report << "  first differing record: " << *a
                   << "\n  golden:                 "
                   << (b != old.end() ? *b : "absent") << "\n";
        if (known)
            wantLine.erase(golden);
    }
    for (const auto &[name, line] : wantLine)
        report << "gone: " << line << "\n";
    ADD_FAILURE() << report.str()
                  << "\nIf the change is meant to move results, replace "
                  << dir << "/stats_digests.txt with:\n"
                  << joined(got.experiments) << "\nand " << dir
                  << "/stats_records.txt with:\n"
                  << joined(got.records);
}

TEST(Golden, ReportDigests)
{
    const std::string path = std::string(GOLDEN_DIR) + "/report_digests.txt";
    const std::vector<std::string> want = readLines(path);
    const Golden &got = golden();
    if (got.reports == want)
        return;

    std::map<std::string, std::string> wantLine;
    for (const std::string &l : want)
        wantLine[experimentOf(l)] = l;
    std::ostringstream report;
    for (const std::string &line : got.reports) {
        const std::string name = experimentOf(line);
        auto old = wantLine.find(name);
        const bool known = old != wantLine.end();
        if (!known || old->second != line)
            report << "moved: " << line << "\n  golden: "
                   << (known ? old->second : "absent") << "\n"
                   << got.reportText.at(name) << "\n";
        if (known)
            wantLine.erase(old);
    }
    for (const auto &[name, line] : wantLine)
        report << "gone: " << line << "\n";
    ADD_FAILURE() << report.str()
                  << "\nIf the change is meant to move the printed "
                  << "tables, replace " << path << " with:\n"
                  << joined(got.reports);
}

/** A vector's bytes' FNV-1a, whatever its allocator. */
template <typename T, typename A>
std::string
digest(const std::vector<T, A> &v)
{
    return hex(fnv1a(v.data(), v.size() * sizeof(T)));
}

/** FNV-1a over every field of every record, composed, in order. */
std::string
composedDigest(const DynamicTrace &trace)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const TraceRecord &r : trace) {
        const int64_t fields[] = {
            static_cast<int64_t>(r.pc),
            static_cast<int64_t>(r.nextPc),
            static_cast<int64_t>(r.addrOrImm),
            static_cast<int64_t>(r.op),
            r.memSize,
            r.taken,
            r.markedBranch,
            r.orderSensitive,
            r.orderStrict,
            r.rd,
            r.rs1,
            r.rs2,
            r.rs3,
            r.guardIdx,
        };
        h = fnv1a(fields, sizeof(fields), h);
    }
    return hex(h);
}

/**
 * "<name> records=N statics=N data=.. composed=.. static_table=..
 * dyn=.. misp=.. regs=..": the records as consumers read them and every
 * byte the trace store would publish for @p name, with @p data the
 * data segments' digest.
 */
std::string
traceDigestLine(const std::string &name, const std::string &data,
                const DynamicTrace &trace, const std::vector<uint8_t> &misp,
                uint64_t regs)
{
    return name + " records=" + std::to_string(trace.size()) +
           " statics=" + std::to_string(trace.statics.size()) +
           " data=" + data + " composed=" + composedDigest(trace) +
           " static_table=" + digest(trace.statics) +
           " dyn=" + digest(trace.dyn) + " misp=" + digest(misp) +
           " regs=" + hex(regs);
}

/** @p name's golden line, from a program the caller keeps. */
std::string
traceDigestLine(const std::string &name)
{
    Program prog = buildWorkload(name);
    runBranchDependencePass(prog);
    Interpreter interp(prog);
    InterpOptions io;
    io.maxDynInsts = GOLDEN_TRACE_INSTS;
    const DynamicTrace trace = interp.run(io);

    uint64_t data = fnv1a(nullptr, 0);
    for (const DataSegment &seg : prog.dataSegments()) {
        const uint64_t head[2] = {seg.base, seg.bytes.size()};
        data = fnv1a(head, sizeof(head), data);
        data = fnv1a(seg.bytes.data(), seg.bytes.size(), data);
    }
    return traceDigestLine(name, hex(data), trace,
                           precomputeMispredictions(trace),
                           interp.regChecksum());
}

/**
 * @p name's golden line through prepareTrace(), which moves the program
 * into the interpreter; @p data stands in for the digest of a program
 * the bundle does not keep.
 */
std::string
preparedDigestLine(const std::string &name, const std::string &data)
{
    TraceOptions opts;
    opts.maxDynInsts = GOLDEN_TRACE_INSTS;
    const TraceBundle bundle = prepareTrace(name, opts);
    return traceDigestLine(name, data, bundle.trace, bundle.misp,
                           bundle.checksum);
}

/** The space-separated tokens of @p line. */
std::vector<std::string>
tokens(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string t; in >> t;)
        out.push_back(t);
    return out;
}

TEST(Golden, TraceDigests)
{
    const std::string path = std::string(GOLDEN_DIR) + "/trace_digests.txt";
    const std::vector<std::string> want = readLines(path);
    std::vector<std::string> got;
    for (const std::string &name : workloadNames()) {
        got.push_back(traceDigestLine(name));
        // A bundle keeps no program: reuse the line's "data=" digest.
        const std::string data = tokens(got.back()).at(3).substr(5);
        EXPECT_EQ(preparedDigestLine(name, data), got.back())
            << "prepareTrace() builds " << name << " differently";
    }
    if (got == want)
        return;

    std::map<std::string, std::string> wantLine;
    for (const std::string &l : want)
        wantLine[experimentOf(l)] = l;
    std::ostringstream report;
    for (const std::string &line : got) {
        const std::string name = experimentOf(line);
        auto golden = wantLine.find(name);
        if (golden == wantLine.end()) {
            report << "new: " << line << "\n";
            continue;
        }
        const std::vector<std::string> now = tokens(line);
        const std::vector<std::string> old = tokens(golden->second);
        auto [a, b] =
            std::mismatch(now.begin(), now.end(), old.begin(), old.end());
        if (a != now.end())
            report << name << ": first differing section "
                   << a->substr(0, a->find('=')) << "\n  now:    " << line
                   << "\n  golden: " << golden->second << "\n";
        wantLine.erase(golden);
    }
    for (const auto &[name, line] : wantLine)
        report << "gone: " << line << "\n";
    ADD_FAILURE() << report.str()
                  << "\nIf the change is meant to move traces, replace "
                  << path << " with:\n"
                  << joined(got);
}

} // namespace
