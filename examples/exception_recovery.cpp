/**
 * @file
 * Precise exception handling (paper Section 4.4, Figure 5): when a
 * memory exception is taken while instructions beyond a reconvergence
 * point have already committed out of order, the OS must (a) learn
 * what those instructions changed and (b) restore that knowledge when
 * the application resumes, so the re-fetched instructions are dropped
 * instead of re-executed. The paper adds two instructions for this:
 * getCITEntry and setCITEntry.
 *
 * This example demonstrates the whole flow:
 *  1. a Noreba run whose mispredicting, slow-to-resolve branch causes
 *     out-of-order commits beyond its reconvergence point, observable
 *     as CIT activity and decode-stage CIT drops on re-fetch
 *     (Figure 5b's squiggle);
 *  2. a trap-handler instruction sequence built from getCITEntry /
 *     setCITEntry + FENCE showing the ISA-level save/restore protocol
 *     executing in the pipeline (the FENCE forces the in-order commit
 *     boundary the OS needs around the handler).
 *
 * Build & run:  ./build/examples/exception_recovery
 */

#include <cstdio>

#include "common/rng.h"
#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "sim/runner.h"
#include "uarch/branch_predictor.h"
#include "uarch/core.h"

using namespace noreba;

namespace {

/** A loop with a mispredicting delinquent branch + a trap handler. */
Program
buildProgram()
{
    Rng rng(3);
    Program prog("exception_recovery");

    const int64_t tableLen = 1 << 19; // 4 MB
    uint64_t table = prog.allocGlobal(tableLen * 8);
    for (int64_t i = 0; i < tableLen; ++i)
        prog.poke64(table + static_cast<uint64_t>(i) * 8, rng.next());

    const AliasRegion R_TABLE = 1;
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int rare = b.newBlock("rare");
    int next = b.newBlock("next");
    int handler = b.newBlock("trap_handler");
    int resume = b.newBlock("resume");
    int done = b.newBlock("done");

    b.at(entry)
        .li(S2, static_cast<int64_t>(table))
        .li(S3, 0)
        .li(S4, 20000)
        .li(S5, 0)
        .li(S6, 0)
        .li(S7, tableLen - 1)
        .li(S8, 0x9e3779b9)
        .fallthrough(loop);

    // Delinquent, data-dependent branch: out-of-order commits happen
    // beyond its reconvergence point while it resolves.
    b.at(loop)
        .mul(T0, S3, S8)
        .srli(T0, T0, 13)
        .and_(T0, T0, S7)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R_TABLE)
        .andi(T2, T1, 7)
        .beq(T2, ZERO, rare, next); // ~12%, mispredicts

    b.at(rare)
        .add(S5, S5, T1)
        .jump(next);

    b.at(next)
        .addi(S6, S6, 9)            // independent: commits OoO
        .xori(S6, S6, 5)
        .addi(S3, S3, 1)
        // Take the "trap" exactly once, halfway through the run.
        .li(T3, 10000)
        .beq(S3, T3, handler, loop);

    // Trap handler (Section 4.4): the OS drains the CIT with
    // getCITEntry, does its work behind a FENCE (forced in-order
    // commit), and reloads the entries with setCITEntry before
    // returning, so OoO commit resumes correctly.
    b.at(handler).fence();
    for (int i = 0; i < 8; ++i) {
        Instruction get;
        get.op = Opcode::GET_CIT_ENTRY;
        get.rd = T4;
        get.imm = i;
        b.emit(get);
        b.sd(T4, SP, -8 * (i + 1), ALIAS_UNKNOWN); // OS save area
    }
    for (int i = 0; i < 8; ++i) {
        b.ld(T4, SP, -8 * (i + 1), ALIAS_UNKNOWN);
        Instruction set;
        set.op = Opcode::SET_CIT_ENTRY;
        set.rs1 = T4;
        set.imm = i;
        b.emit(set);
    }
    b.fence().fallthrough(resume);

    b.at(resume).jump(loop);
    b.at(done).halt();

    // The loop exits through `next`'s fallthrough once S3 reaches S4:
    // rewrite the loop-back edge to test the bound.
    {
        BasicBlock &bb = prog.function().block(next);
        bb.insts.pop_back(); // drop the trap beq
        bb.insts.pop_back(); // drop the li
        IRBuilder h(prog);
        int guard = h.newBlock("trap_check");
        h.at(next)
            .li(T3, 10000)
            .bne(S3, T3, guard, handler);
        h.at(guard).blt(S3, S4, loop, done);
    }

    prog.finalize();
    return prog;
}

} // namespace

int
main()
{
    Program prog = buildProgram();
    PassResult pass = runBranchDependencePass(prog);
    std::printf("%s\n", pass.report().c_str());

    Interpreter interp(prog);
    DynamicTrace trace = interp.run();
    std::vector<uint8_t> misp = precomputeMispredictions(trace);

    uint64_t citReads = 0, citWrites = 0, fences = 0;
    for (const TraceRecord &rec : trace) {
        citReads += rec.op == Opcode::GET_CIT_ENTRY;
        citWrites += rec.op == Opcode::SET_CIT_ENTRY;
        fences += rec.op == Opcode::FENCE;
    }
    std::printf("trap handler executed: %llu getCITEntry, %llu "
                "setCITEntry, %llu FENCEs\n",
                static_cast<unsigned long long>(citReads),
                static_cast<unsigned long long>(citWrites),
                static_cast<unsigned long long>(fences));

    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = CommitMode::Noreba;
    CoreStats s = Core(cfg, trace, misp).run();

    std::printf("\nNoreba run: %llu cycles, %.1f%% committed out of "
                "order\n",
                static_cast<unsigned long long>(s.cycles),
                100.0 * s.oooCommitFraction());
    std::printf("CIT allocations/lookups/frees: %llu\n",
                static_cast<unsigned long long>(s.citOps));
    std::printf("re-fetched instructions dropped at decode via the "
                "CIT (Figure 5b flow): %llu across %llu "
                "mispredictions\n",
                static_cast<unsigned long long>(s.citDrops),
                static_cast<unsigned long long>(s.mispredicts));
    std::printf("\nThe FENCEd handler forces the in-order-commit "
                "boundary the OS requires: every instruction older "
                "than the trap committed before the handler ran, and "
                "OoO commit resumed after setCITEntry restored the "
                "table.\n");
    return 0;
}
