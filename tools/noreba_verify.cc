/**
 * @file
 * noreba-verify: static soundness checks over workloads.
 *
 * Runs the IR verifier (src/ir/verifier.h) and the independent
 * annotation checker (src/analysis) over registered workloads or an
 * assembled program, and reports findings as text and optionally
 * JSON. Nothing is executed or simulated.
 *
 *   noreba-verify                    check every registered workload,
 *                                    unannotated and annotated
 *   noreba-verify mcf crc32          check selected workloads
 *   noreba-verify --asm file.s       check an assembly file as written
 *                                    (a malformed CFG is reported as
 *                                    its structural findings)
 *   noreba-verify --json out.json    also write machine-readable
 *                                    findings ("-" = stdout)
 *   noreba-verify --werror           treat warnings as errors
 *   noreba-verify --no-annotate      skip the pass; structural checks
 *                                    only
 *   noreba-verify --quiet            print no per-unit findings or
 *                                    summary
 *   noreba-verify --list             list registered workloads
 *
 * Exit status: 0 = no errors, 1 = errors (or --werror warnings)
 * found, 2 = usage/IO failure.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/annotation_checker.h"
#include "common/json.h"
#include "compiler/branch_dep.h"
#include "ir/assembler.h"
#include "ir/diagnostics.h"
#include "ir/verifier.h"
#include "workloads/workloads.h"

namespace {

using namespace noreba;

struct RunRecord
{
    bool annotated = false;
    Diagnostics diag;
};

/** Print one run's findings unless quiet; hand the run back. */
RunRecord
report(RunRecord rec, bool quiet)
{
    if (!quiet) {
        if (rec.diag.findings().empty())
            std::cout << rec.diag.unit() << ": clean\n";
        else
            std::cout << rec.diag.toText();
    }
    return rec;
}

/** Verify one program; annotate it first when asked. */
RunRecord
lintProgram(Program &prog, bool annotate, bool quiet)
{
    RunRecord rec{annotate,
                  Diagnostics(prog.name() + (annotate ? "+pass" : ""))};
    if (annotate)
        runBranchDependencePass(prog);
    verifyProgram(prog, rec.diag);
    CheckOptions opts;
    opts.requireAnnotations = annotate;
    checkAnnotations(prog, rec.diag, opts);
    return report(std::move(rec), quiet);
}

bool
writeDoc(const JsonValue &doc, const std::string &path)
{
    if (path == "-") {
        std::cout << doc.dump(2) << '\n';
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "noreba-verify: cannot write JSON " << path << '\n';
        return false;
    }
    out << doc.dump(2) << '\n';
    return true;
}

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--list] [--asm FILE] [--json PATH|-] [--no-annotate]\n"
        << "       [--werror] [--quiet] [workload...]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> units;
    std::string asmFile, jsonPath;
    bool annotate = true;
    bool werror = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            for (const auto &d : workloadRegistry())
                std::cout << d.name << "  [" << d.suite << "] "
                          << d.profile << '\n';
            return 0;
        } else if (arg == "--asm") {
            if (++i >= argc)
                return usage(argv[0]);
            asmFile = argv[i];
        } else if (arg == "--json") {
            if (++i >= argc)
                return usage(argv[0]);
            jsonPath = argv[i];
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--no-annotate") {
            annotate = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            units.push_back(arg);
        }
    }

    std::vector<RunRecord> runs;

    if (!asmFile.empty()) {
        std::ifstream in(asmFile);
        if (!in) {
            std::cerr << "noreba-verify: cannot open " << asmFile
                      << '\n';
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        AssembleResult res = assemble(text.str(), asmFile);
        if (!res.error.empty()) {
            std::cerr << "noreba-verify: " << asmFile << ": "
                      << res.error << '\n';
            return 2;
        }
        // Assembly input is checked as written: annotations, when
        // present, came from the file, so never re-run the pass. A
        // malformed program is reported by its structural findings.
        runs.push_back(res.ok()
                           ? lintProgram(res.program, false, quiet)
                           : report({false, res.diagnostics}, quiet));
    } else {
        std::vector<std::string> names =
            units.empty() ? workloadNames() : units;
        const auto &registry = workloadRegistry();
        for (const std::string &name : names) {
            bool known = false;
            for (const auto &d : registry)
                known = known || d.name == name;
            if (!known) {
                std::cerr << "noreba-verify: unknown workload '"
                          << name << "' (see --list)\n";
                return 2;
            }
            {
                Program prog = buildWorkload(name);
                runs.push_back(lintProgram(prog, false, quiet));
            }
            if (annotate) {
                Program prog = buildWorkload(name);
                runs.push_back(lintProgram(prog, true, quiet));
            }
        }
    }

    int errors = 0, warnings = 0;
    for (const RunRecord &r : runs) {
        errors += r.diag.errorCount();
        warnings += r.diag.warningCount();
    }

    if (!jsonPath.empty()) {
        JsonValue doc = JsonValue::object();
        doc.set("tool", std::string("noreba-verify"));
        doc.set("schemaVersion", 1);
        JsonValue arr = JsonValue::array();
        for (const RunRecord &r : runs) {
            JsonValue run = r.diag.toJson();
            run.set("annotated", r.annotated);
            arr.push(std::move(run));
        }
        doc.set("runs", std::move(arr));
        JsonValue totals = JsonValue::object();
        totals.set("errors", errors);
        totals.set("warnings", warnings);
        doc.set("totals", std::move(totals));
        if (!writeDoc(doc, jsonPath))
            return 2;
    }

    if (!quiet)
        std::cout << runs.size() << " run(s): " << errors
                  << " error(s), " << warnings << " warning(s)\n";
    if (errors > 0)
        return 1;
    if (werror && warnings > 0)
        return 1;
    return 0;
}
