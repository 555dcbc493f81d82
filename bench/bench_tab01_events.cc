/**
 * @file
 * Table 1: the OoO-commit processor's event-to-action semantics,
 * demonstrated live. Runs the paper's Figure 2 if-then-else through the
 * compiler pass and the annotated trace through the interpreter's
 * architectural BIT/DCT replay, printing each event with the action it
 * triggered, then the per-structure activity a full Noreba run
 * generates.
 */

#include <cstdio>

#include "common/table.h"
#include "experiments.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "isa/setup_encoding.h"

namespace noreba::bench {

namespace {

/** The paper's Figure 2 if-then-else (see examples/compiler_pass_demo). */
Program
figure2Program()
{
    Program prog("fig2");
    IRBuilder b(prog);
    int bb1 = b.newBlock("BB1");
    int bb2 = b.newBlock("BB2");
    int bb3 = b.newBlock("BB3");
    int bb4 = b.newBlock("BB4");

    const AliasRegion R = 0;
    b.at(bb1)
        .li(A5, 1)
        .addi(SP, SP, -64)
        .sw(A5, SP, 24, R)          // -40(s0)
        .sw(A5, SP, 28, R)          // -36(s0)
        .beq(A5, ZERO, bb3, bb2);   // breqz a5, L1

    b.at(bb2)
        .lw(A4, SP, 24, R)
        .lw(A5, SP, 28, R)
        .sub(T0, A4, A5)
        .sw(T0, SP, 44, R)          // -20(s0)
        .add(T1, A4, A5)
        .sw(T1, SP, 40, R)          // -24(s0)
        .jump(bb4);

    b.at(bb3)
        .lw(A4, SP, 24, R)
        .lw(A5, SP, 28, R)
        .add(T0, A4, A5)
        .sw(T0, SP, 44, R)
        .sub(T1, A4, A5)
        .sw(T1, SP, 40, R)
        .jump(bb4);

    b.at(bb4)
        .lw(A4, SP, 24, R)          // independent of the branch
        .lw(A5, SP, 28, R)
        .xor_(T2, A5, A4)
        .sw(T2, SP, 12, R)
        .lw(T3, SP, 44, R)          // dependent (blue region)
        .xor_(T4, T3, A4)
        .sw(T4, SP, 16, R)
        .lw(T5, SP, 40, R)
        .xor_(T6, T5, A4)
        .sw(T6, SP, 8, R)
        .halt();

    prog.finalize();
    return prog;
}

} // namespace

void
registerTab01Events()
{
    ExperimentSpec spec;
    spec.name = "tab01_events";
    spec.title = "Table 1 (event-to-action semantics)";
    spec.description = "setBranchId/setDependency handling on the "
                       "paper's Figure 2 example, plus Selective ROB "
                       "activity";

    spec.plan = [](ExperimentPlan &plan) {
        planColumns(
            plan, {"mcf"},
            {{"Noreba", withMode(skylakeConfig(), CommitMode::Noreba)}});
    };

    spec.report = [](const ExperimentResults &r) {
        Program prog = figure2Program();
        PassResult pr = runBranchDependencePass(prog);
        std::printf("%s\n", pr.report().c_str());

        Interpreter interp(prog);
        DynamicTrace trace = interp.run();

        TextTable table;
        table.setHeader({"#", "event", "action"});
        for (size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord rec = trace[i];
            char buf[128];
            if (rec.op == Opcode::SET_BRANCH_ID) {
                std::snprintf(buf, sizeof(buf),
                              "BIT[%lld] = next branch's sequence number",
                              static_cast<long long>(rec.addrOrImm));
                table.addRow({std::to_string(i), "setBranchId decoded",
                              buf});
            } else if (rec.op == Opcode::SET_DEPENDENCY) {
                std::snprintf(
                    buf, sizeof(buf),
                    "DCT = (ID %lld, BIT[ID]), counter = %lld",
                    static_cast<long long>(
                        static_cast<int64_t>(rec.addrOrImm) >> 32),
                    static_cast<long long>(rec.addrOrImm & 0xffffffff));
                table.addRow({std::to_string(i), "setDependency decoded",
                              buf});
            } else if (rec.guardIdx >= 0) {
                std::snprintf(buf, sizeof(buf),
                              "Inst.BranchID <- branch @%d; DCT.counter--",
                              rec.guardIdx);
                table.addRow({std::to_string(i),
                              std::string(opcodeName(rec.op)) +
                                  " enters ROB'",
                              buf});
            } else {
                table.addRow({std::to_string(i),
                              std::string(opcodeName(rec.op)) +
                                  " enters ROB'",
                              "Inst.BranchID = INVALID (independent)"});
            }
        }
        std::printf("%s\n", table.render().c_str());

        // Structure activity of a real Noreba run.
        const CoreStats &s = r.at("mcf", "Noreba");
        std::printf("Selective ROB activity on mcf: BIT ops %llu, DCT "
                    "ops %llu, CQT ops %llu, CIT ops %llu, CQ "
                    "pushes+pops %llu\n",
                    static_cast<unsigned long long>(s.bitOps),
                    static_cast<unsigned long long>(s.dctOps),
                    static_cast<unsigned long long>(s.cqtOps),
                    static_cast<unsigned long long>(s.citOps),
                    static_cast<unsigned long long>(s.cqOps));
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
