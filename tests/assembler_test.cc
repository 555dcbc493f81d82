/**
 * @file
 * Tests for the textual IR assembler: parsing, data directives,
 * error reporting, printer round-trips, and end-to-end execution of
 * assembled programs through the pass and the core.
 */

#include <gtest/gtest.h>

#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/assembler.h"
#include "test_util.h"

namespace noreba {
namespace {

TEST(Assembler, MinimalProgram)
{
    AssembleResult r = assemble(R"(
        entry:
            li   t0, 7
            addi t0, t0, 35
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    Interpreter interp(r.program);
    interp.run();
    EXPECT_EQ(interp.intReg(T0), 42);
}

TEST(Assembler, LoopWithBranch)
{
    AssembleResult r = assemble(R"(
        ; sum 1..10
        entry:
            li t0, 0
            li t1, 0
            li t2, 10
        loop:
            addi t1, t1, 1
            add  t0, t0, t1
            blt  t1, t2, loop, done
        done:
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    Interpreter interp(r.program);
    interp.run();
    EXPECT_EQ(interp.intReg(T0), 55);
}

TEST(Assembler, ImplicitFallthroughAndDefaultBranchTarget)
{
    AssembleResult r = assemble(R"(
        entry:
            li t0, 1
        check:
            beq t0, zero, done
        body:
            li t1, 9
        done:
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    Interpreter interp(r.program);
    interp.run();
    EXPECT_EQ(interp.intReg(T1), 9); // branch not taken -> body runs
}

TEST(Assembler, DataDirectivesAndMemory)
{
    AssembleResult r = assemble(R"(
        .data buf 64
        .region buf 1
        .word buf+8 1234
        entry:
            la t0, buf
            ld t1, 8(t0)
            addi t1, t1, 1
            sd t1, 16(t0)
            ld t2, 16(t0)
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    Interpreter interp(r.program);
    interp.run();
    EXPECT_EQ(interp.intReg(T2), 1235);

    // Region annotation propagated to the memory instructions.
    bool sawRegion = false;
    for (const auto &bb : r.program.function().blocks())
        for (const auto &inst : bb.insts)
            if (isMem(inst.op))
                sawRegion |= inst.aliasRegion == 1;
    EXPECT_TRUE(sawRegion);
}

TEST(Assembler, FloatingPoint)
{
    AssembleResult r = assemble(R"(
        entry:
            li t0, 9
            fcvt.d.l f0, t0
            fsqrt    f1, f0
            fadd     f2, f1, f1
            fcvt.l.d t1, f2
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    Interpreter interp(r.program);
    interp.run();
    EXPECT_EQ(interp.intReg(T1), 6);
}

TEST(Assembler, SetupInstructions)
{
    AssembleResult r = assemble(R"(
        entry:
            li t0, 1
            setBranchId 3
            beq t0, zero, skip, body
        body:
            setDependency 2 3
            addi t1, t1, 1
            addi t2, t2, 1
        skip:
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    DynamicTrace trace = Interpreter(r.program).run();
    int guarded = 0;
    for (const auto &rec : trace)
        guarded += rec.guardIdx != TRACE_NONE;
    EXPECT_EQ(guarded, 2);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    AssembleResult r = assemble("entry:\n    bogus t0, t1\n    halt\n");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 2"), std::string::npos);
    EXPECT_NE(r.error.find("bogus"), std::string::npos);

    AssembleResult r2 = assemble("entry:\n    blt t0, t1, nowhere\n");
    EXPECT_FALSE(r2.ok());

    AssembleResult r3 = assemble("    li t0, 1\n");
    EXPECT_FALSE(r3.ok()); // no label

    AssembleResult r4 = assemble("a:\n halt\na:\n halt\n");
    EXPECT_FALSE(r4.ok()); // duplicate label
}

TEST(Assembler, ErrorsCarryLabelAndSourceContext)
{
    // The failing line is echoed and the enclosing block is named.
    AssembleResult r =
        assemble("entry:\n    halt\nloop:\n    bogus t0, t1\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("'loop'"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("    bogus t0, t1"), std::string::npos)
        << r.error;

    // Directive errors echo the line but precede any label.
    AssembleResult r2 = assemble(".data\nentry:\n    halt\n");
    ASSERT_FALSE(r2.ok());
    EXPECT_NE(r2.error.find("line 1"), std::string::npos) << r2.error;
    EXPECT_NE(r2.error.find(".data"), std::string::npos) << r2.error;
    EXPECT_EQ(r2.error.find("(in"), std::string::npos) << r2.error;

    // Unknown-label errors name the block being assembled.
    AssembleResult r3 =
        assemble("entry:\n    blt t0, t1, nowhere\n");
    ASSERT_FALSE(r3.ok());
    EXPECT_NE(r3.error.find("'entry'"), std::string::npos) << r3.error;
    EXPECT_NE(r3.error.find("nowhere"), std::string::npos) << r3.error;
}

TEST(Assembler, StructuralErrorComesBackAsFindings)
{
    // tests/no_halt.s: it parses, but no halt ends the loop. The
    // verifier's findings come back instead of the process exiting.
    AssembleResult r = assemble(R"(
        entry:
            li t0, 0
        loop:
            addi t0, t0, 1
            jal loop
    )", "no_halt");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.diagnostics.hasRule("cfg-no-exit"))
        << r.diagnostics.toText();
    EXPECT_EQ(r.diagnostics.unit(), "no_halt");
}

TEST(Assembler, RoundTripsThroughThePrinter)
{
    AssembleResult first = assemble(R"(
        .data tab 128
        .region tab 2
        entry:
            la  s2, tab
            li  t0, 0
            li  t1, 12
        loop:
            sll t2, t0, 3
            add t2, s2, t2
            sd  t0, 0(t2)
            addi t0, t0, 1
            blt t0, t1, loop, done
        done:
            halt
    )");
    ASSERT_TRUE(first.ok()) << first.error;

    // Print and re-assemble; results must match architecturally.
    std::string printed = first.program.function().toString();
    // Drop the "function ..." header line; the rest parses directly.
    printed = printed.substr(printed.find('\n') + 1);
    AssembleResult second = assemble(printed);
    ASSERT_TRUE(second.ok()) << second.error << "\n" << printed;

    Interpreter a(first.program);
    a.run();
    // Re-seed the second program's data (the printer does not carry
    // data segments, so poke the same contents).
    for (const auto &seg : first.program.dataSegments())
        for (size_t i = 0; i < seg.bytes.size(); ++i)
            ; // second program reads zeroes; compare register effects
    Interpreter b(second.program);
    b.run();
    // The loop writes t0's final value regardless of data contents.
    EXPECT_EQ(a.intReg(T0), b.intReg(T0));
    EXPECT_EQ(first.program.function().numInsts(),
              second.program.function().numInsts());
}

TEST(Assembler, AssembledProgramRunsThroughTheWholeStack)
{
    AssembleResult r = assemble(R"(
        .data table 32768
        .region table 1
        entry:
            la s2, table
            li s3, 0
            li s4, 4000
            li s7, 4095
        loop:
            and  t0, s3, s7
            sll  t0, t0, 3
            add  t0, s2, t0
            ld   t1, 0(t0)
            andi t2, t1, 3
            beq  t2, zero, rare, next
        rare:
            add  s5, s5, t1
        next:
            addi s6, s6, 1
            addi s3, s3, 1
            blt  s3, s4, loop, done
        done:
            halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    PassResult pass = runBranchDependencePass(r.program);
    EXPECT_GE(pass.numMarkedBranches, 1);

    testutil::Prepared p = testutil::prepare(r.program);
    CoreStats ino = testutil::run(p, CommitMode::InOrder);
    CoreStats nor = testutil::run(p, CommitMode::Noreba);
    EXPECT_EQ(ino.committedInsts, p.trace.dynInsts);
    EXPECT_EQ(nor.committedInsts, p.trace.dynInsts);
}

} // namespace
} // namespace noreba
