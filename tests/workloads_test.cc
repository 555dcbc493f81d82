/**
 * @file
 * Parameterized tests over the full 20-workload suite: structural
 * validity, pass applicability, semantic preservation under
 * annotation, and determinism.
 */

#include <gtest/gtest.h>

#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/verifier.h"
#include "workloads/workloads.h"

namespace noreba {
namespace {

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSuite, BuildsAndVerifies)
{
    Program prog = buildWorkload(GetParam());
    Diagnostics diag(prog.name());
    EXPECT_TRUE(verifyStructure(prog, diag)) << diag.toText();
    EXPECT_GT(prog.function().numInsts(), 10u);
    EXPECT_FALSE(prog.dataSegments().empty());
}

TEST_P(WorkloadSuite, PassAnnotatesAndStillVerifies)
{
    Program prog = buildWorkload(GetParam());
    PassResult res = runBranchDependencePass(prog);
    Diagnostics diag(prog.name());
    EXPECT_TRUE(verifyStructure(prog, diag)) << diag.toText();
    EXPECT_GE(res.numMarkedBranches, 1);
    EXPECT_GT(res.numSetupInsts, 0);
    EXPECT_GT(res.instsAfter, res.instsBefore);
    // Every marked branch got a valid 3-bit compiler ID.
    for (const auto &site : res.branches) {
        EXPECT_GE(site.compilerId, 0);
        EXPECT_LT(site.compilerId, 8);
    }
}

TEST_P(WorkloadSuite, AnnotationPreservesArchitecturalResults)
{
    Program plain = buildWorkload(GetParam());
    Program annotated = buildWorkload(GetParam());
    runBranchDependencePass(annotated);

    InterpOptions opts;
    opts.maxDynInsts = 40000;
    Interpreter a(plain), b(annotated);
    DynamicTrace ta = a.run(opts);
    DynamicTrace tb = b.run(opts);
    EXPECT_EQ(a.regChecksum(), b.regChecksum()) << GetParam();
    EXPECT_EQ(ta.dynInsts, tb.dynInsts);
    EXPECT_EQ(ta.branches, tb.branches);
}

TEST_P(WorkloadSuite, TraceHasExpectedShape)
{
    Program prog = buildWorkload(GetParam());
    runBranchDependencePass(prog);
    InterpOptions opts;
    opts.maxDynInsts = 40000;
    DynamicTrace trace = Interpreter(prog).run(opts);
    EXPECT_EQ(trace.dynInsts, 40000u); // every workload is long enough
    EXPECT_GT(trace.branches, 500u);   // all are loop-based
    EXPECT_GT(trace.loads, 100u);
    // Setup overhead stays within a sane band.
    double overhead = static_cast<double>(trace.setupInsts) /
                      static_cast<double>(trace.dynInsts);
    EXPECT_LT(overhead, 0.50) << GetParam();
    // guardIdx always references an older record.
    for (size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].guardIdx != TRACE_NONE) {
            EXPECT_LT(trace[i].guardIdx,
                      static_cast<TraceIdx>(i));
            EXPECT_TRUE(
                trace[static_cast<size_t>(
                                  trace[i].guardIdx)]
                    .isBranchSite());
        }
    }
}

TEST_P(WorkloadSuite, DeterministicForSameSeedDivergesAcrossSeeds)
{
    WorkloadParams p1;
    p1.seed = 42;
    WorkloadParams p2;
    p2.seed = 43;
    Program a = buildWorkload(GetParam(), p1);
    Program b = buildWorkload(GetParam(), p1);
    Program c = buildWorkload(GetParam(), p2);

    InterpOptions opts;
    opts.maxDynInsts = 20000;
    Interpreter ia(a), ib(b), ic(c);
    ia.run(opts);
    ib.run(opts);
    ic.run(opts);
    EXPECT_EQ(ia.regChecksum(), ib.regChecksum());
    EXPECT_NE(ia.regChecksum(), ic.regChecksum()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSuite,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(WorkloadRegistry, HasTwentyEntriesInBothSuites)
{
    int spec = 0, mibench = 0;
    for (const auto &desc : workloadRegistry()) {
        EXPECT_FALSE(desc.profile.empty());
        if (desc.suite == "spec")
            ++spec;
        else if (desc.suite == "mibench")
            ++mibench;
    }
    EXPECT_EQ(spec, 14);
    EXPECT_EQ(mibench, 6);
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_DEATH(buildWorkload("no-such-benchmark"), "unknown workload");
}

TEST(WorkloadRegistry, ScaleShrinksTraces)
{
    WorkloadParams small;
    small.scale = 0.1;
    Program prog = buildWorkload("mcf", small);
    DynamicTrace t = Interpreter(prog).run();
    WorkloadParams big;
    Program prog2 = buildWorkload("mcf", big);
    DynamicTrace t2 = Interpreter(prog2).run();
    EXPECT_LT(t.dynInsts, t2.dynInsts / 5);
}

} // namespace
} // namespace noreba
