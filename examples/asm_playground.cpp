/**
 * @file
 * Assembly playground: write a kernel as text, run the NOREBA pass,
 * and compare commit policies on it — the fastest way to explore how
 * a code shape interacts with the Selective ROB.
 *
 * Usage:
 *   ./build/examples/asm_playground            # built-in kernel
 *   ./build/examples/asm_playground file.s     # your own program
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/assembler.h"
#include "sim/runner.h"
#include "uarch/branch_predictor.h"
#include "uarch/core.h"

using namespace noreba;

namespace {

/** A delinquent-branch kernel with independent follow-on work. */
const char *DEFAULT_KERNEL = R"(
    ; hashed probes into a 2 MB table; the parity test depends on the
    ; missing load but guards only one instruction, so NOREBA commits
    ; the rest of each iteration while the probe is in flight.
    .data table 2097152
    .region table 1

    entry:
        la  s2, table
        li  s3, 0          ; i
        li  s4, 20000      ; iterations
        li  s5, 0          ; dependent sum
        li  s6, 0          ; independent counter
        li  s7, 262143     ; index mask (table entries - 1)
        li  s8, 0x9e3779b9
    loop:
        mul  t0, s3, s8
        srl  t0, t0, 13
        and  t0, t0, s7
        sll  t0, t0, 3
        add  t0, s2, t0
        ld   t1, 0(t0)     ; delinquent load
        andi t2, t1, 1
        bne  t2, zero, odd, next
    odd:
        add  s5, s5, t1    ; the only dependent instruction
    next:
        addi s6, s6, 5     ; independent work: commits early
        xori s6, s6, 3
        srl  t3, s6, 2
        add  s6, s6, t3
        addi s3, s3, 1
        blt  s3, s4, loop, done
    done:
        halt
)";

} // namespace

int
main(int argc, char **argv)
{
    std::string source = DEFAULT_KERNEL;
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    }

    AssembleResult r = assemble(source, "playground");
    if (!r.error.empty()) {
        std::fprintf(stderr, "assembly error: %s\n", r.error.c_str());
        return 1;
    }
    if (!r.ok()) {
        std::fprintf(stderr, "%s", r.diagnostics.toText().c_str());
        return 1;
    }

    PassResult pass = runBranchDependencePass(r.program);
    std::printf("=== annotated program ===\n%s\n%s\n",
                r.program.function().toString().c_str(),
                pass.report().c_str());

    Interpreter interp(r.program);
    DynamicTrace trace = interp.run();
    std::vector<uint8_t> misp = precomputeMispredictions(trace);
    std::printf("trace: %zu records, %llu branches, %llu mispredicted\n\n",
                trace.size(),
                static_cast<unsigned long long>(trace.branches),
                static_cast<unsigned long long>(
                    summarizeMispredictions(trace, misp).mispredicts));

    uint64_t inoCycles = 0;
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::NonSpecOoO,
          CommitMode::ValidationBuffer, CommitMode::Noreba,
          CommitMode::IdealReconv, CommitMode::SpeculativeBR}) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        CoreStats s = Core(cfg, trace, misp).run();
        if (mode == CommitMode::InOrder)
            inoCycles = s.cycles;
        std::printf("%-22s %8llu cycles  IPC %.3f  speedup %.3fx  "
                    "OoO %.1f%%\n",
                    commitModeName(mode),
                    static_cast<unsigned long long>(s.cycles), s.ipc(),
                    static_cast<double>(inoCycles) /
                        static_cast<double>(s.cycles),
                    100.0 * s.oooCommitFraction());
    }
    return 0;
}
