/**
 * @file
 * Diff two BENCH_*.json sweep records counter-by-counter.
 *
 *   noreba-stats-diff [--all] [--expect-equal] [--ignore a,b,...]
 *                     A.json B.json
 *
 * Records are matched by identity (workload, config name, commit mode,
 * trace length, annotate, stripSetups) with an index fallback, and
 * every "stats" field present on either side is compared. By default
 * only differing counters print; --all prints everything. With
 * --expect-equal the exit status is 1 when any matched record differs
 * (or any record is unmatched) — CI uses this to assert that an
 * event-traced run is bit-identical to an untraced one.
 *
 * --ignore takes a comma-separated list of counter names to exclude
 * from the comparison entirely (present-but-different and
 * present-on-one-side-only both). Use it to compare runs across
 * simulator versions whose counter sets differ.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

using noreba::JsonValue;

namespace {

struct Options
{
    bool all = false;
    bool expectEqual = false;
    std::set<std::string> ignored;
    std::string pathA;
    std::string pathB;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: noreba-stats-diff [--all] [--expect-equal] "
                 "[--ignore a,b,...] A.json B.json\n");
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "noreba-stats-diff: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The "results" array of a BENCH doc, or the doc itself if bare. */
const JsonValue *
resultsOf(const JsonValue &doc, const std::string &path)
{
    if (doc.isArray())
        return &doc;
    if (doc.isObject()) {
        const JsonValue *r = doc.find("results");
        if (r && r->isArray())
            return r;
    }
    std::fprintf(stderr,
                 "noreba-stats-diff: %s has no results array\n",
                 path.c_str());
    std::exit(2);
}

std::string
stringField(const JsonValue &obj, const char *key)
{
    if (!obj.isObject())
        return "";
    const JsonValue *v = obj.find(key);
    return v && v->isString() ? v->asString() : "";
}

std::string
scalarText(const JsonValue &v)
{
    return v.dump();
}

/** Identity of one sweep record; occurrence counter breaks ties. */
std::string
recordKey(const JsonValue &rec, std::map<std::string, int> &seen)
{
    std::string key = stringField(rec, "workload");
    const JsonValue *cfg = rec.isObject() ? rec.find("config") : nullptr;
    if (cfg && cfg->isObject()) {
        key += '|';
        key += stringField(*cfg, "name");
        key += '|';
        key += stringField(*cfg, "commitMode");
    }
    for (const char *k : {"traceLen", "annotate", "stripSetups"}) {
        const JsonValue *v = rec.isObject() ? rec.find(k) : nullptr;
        key += "|";
        if (v)
            key += scalarText(*v);
    }
    const int occurrence = seen[key]++;
    key += '#';
    key += std::to_string(occurrence);
    return key;
}

/** Numeric equality on the parsed representation. */
bool
sameValue(const JsonValue &a, const JsonValue &b)
{
    if (a.isNumber() && b.isNumber())
        return a.asDouble() == b.asDouble();
    return a.dump() == b.dump();
}

struct DiffStats
{
    int recordsCompared = 0;
    int recordsDiffering = 0;
    int countersDiffering = 0;
    int unmatched = 0;
};

void
diffRecord(const std::string &label, const JsonValue &a,
           const JsonValue &b, const Options &opt, DiffStats &out)
{
    const JsonValue *sa = a.isObject() ? a.find("stats") : nullptr;
    const JsonValue *sb = b.isObject() ? b.find("stats") : nullptr;
    if (!sa || !sb || !sa->isObject() || !sb->isObject()) {
        std::printf("%s: missing stats object\n", label.c_str());
        ++out.unmatched;
        return;
    }
    ++out.recordsCompared;
    bool headerPrinted = false;
    auto header = [&] {
        if (!headerPrinted)
            std::printf("%s\n", label.c_str());
        headerPrinted = true;
    };
    int differing = 0;
    for (size_t i = 0; i < sa->size(); ++i) {
        const std::string &name = sa->keyAt(i);
        if (opt.ignored.count(name))
            continue;
        const JsonValue &va = sa->at(i);
        const JsonValue *vb = sb->find(name);
        if (!vb) {
            header();
            std::printf("  %-24s %s -> (absent)\n", name.c_str(),
                        scalarText(va).c_str());
            ++differing;
            continue;
        }
        bool same = sameValue(va, *vb);
        if (same && !opt.all)
            continue;
        header();
        if (va.isNumber() && vb->isNumber()) {
            double da = va.asDouble();
            double db = vb->asDouble();
            double delta = db - da;
            double rel = da != 0.0 ? 100.0 * delta / da : 0.0;
            std::printf("  %-24s %s -> %s%s", name.c_str(),
                        scalarText(va).c_str(), scalarText(*vb).c_str(),
                        same ? "" : "  ");
            if (!same)
                std::printf("(%+.6g, %+.3f%%)", delta, rel);
            std::printf("\n");
        } else {
            std::printf("  %-24s %s -> %s\n", name.c_str(),
                        scalarText(va).c_str(),
                        scalarText(*vb).c_str());
        }
        if (!same)
            ++differing;
    }
    for (size_t i = 0; i < sb->size(); ++i) {
        const std::string &name = sb->keyAt(i);
        if (opt.ignored.count(name))
            continue;
        if (!sa->find(name)) {
            header();
            std::printf("  %-24s (absent) -> %s\n", name.c_str(),
                        scalarText(sb->at(i)).c_str());
            ++differing;
        }
    }
    if (differing) {
        ++out.recordsDiffering;
        out.countersDiffering += differing;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--all") == 0)
            opt.all = true;
        else if (std::strcmp(argv[i], "--expect-equal") == 0)
            opt.expectEqual = true;
        else if (std::strcmp(argv[i], "--ignore") == 0) {
            if (++i >= argc)
                usage();
            std::string list = argv[i];
            size_t pos = 0;
            while (pos <= list.size()) {
                size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos)
                    opt.ignored.insert(list.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else if (argv[i][0] == '-')
            usage();
        else
            positional.push_back(argv[i]);
    }
    if (positional.size() != 2)
        usage();
    opt.pathA = positional[0];
    opt.pathB = positional[1];

    std::string err;
    JsonValue docA = JsonValue::parse(readFile(opt.pathA), &err);
    if (!err.empty()) {
        std::fprintf(stderr, "noreba-stats-diff: %s: %s\n",
                     opt.pathA.c_str(), err.c_str());
        return 2;
    }
    JsonValue docB = JsonValue::parse(readFile(opt.pathB), &err);
    if (!err.empty()) {
        std::fprintf(stderr, "noreba-stats-diff: %s: %s\n",
                     opt.pathB.c_str(), err.c_str());
        return 2;
    }

    const JsonValue *resA = resultsOf(docA, opt.pathA);
    const JsonValue *resB = resultsOf(docB, opt.pathB);

    // Index B's records by identity; keys collide only between truly
    // identical jobs, which the occurrence counter then disambiguates
    // by position — so same-shaped sweeps line up one-to-one.
    std::map<std::string, const JsonValue *> byKey;
    {
        std::map<std::string, int> seen;
        for (size_t i = 0; i < resB->size(); ++i)
            byKey[recordKey(resB->at(i), seen)] = &resB->at(i);
    }

    DiffStats stats;
    std::map<std::string, int> seen;
    for (size_t i = 0; i < resA->size(); ++i) {
        const JsonValue &a = resA->at(i);
        std::string key = recordKey(a, seen);
        auto it = byKey.find(key);
        std::string label = "record " + key;
        if (it == byKey.end()) {
            std::printf("%s: only in %s\n", label.c_str(),
                        opt.pathA.c_str());
            ++stats.unmatched;
            continue;
        }
        diffRecord(label, a, *it->second, opt, stats);
        byKey.erase(it);
    }
    for (const auto &kv : byKey) {
        std::printf("record %s: only in %s\n", kv.first.c_str(),
                    opt.pathB.c_str());
        ++stats.unmatched;
    }

    std::printf("%d record(s) compared, %d differing "
                "(%d counter(s)), %d unmatched\n",
                stats.recordsCompared, stats.recordsDiffering,
                stats.countersDiffering, stats.unmatched);
    if (opt.expectEqual &&
        (stats.recordsDiffering || stats.unmatched ||
         stats.recordsCompared == 0))
        return 1;
    return 0;
}
