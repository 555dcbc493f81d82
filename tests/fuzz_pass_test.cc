/**
 * @file
 * Property-based fuzzing of the whole co-design. A generator builds
 * random structured programs — nested ifs, loops, jump tables, shared
 * memory regions, loop-carried accumulators — then for every seed:
 *
 *  1. the program must verify before and after the pass;
 *  2. annotation must not change architectural results (checksums);
 *  3. every region must decode consistently (BIT/DCT replay);
 *  4. all non-speculative policies must retire the full trace;
 *  5. the dynamic dataflow oracle must find zero commit-order
 *     violations under Noreba and IdealReconvergence.
 *
 * This is the adversarial counterpart to the hand-written pass tests:
 * the generator aims for the shapes that historically broke the guard
 * assignment (diamonds feeding joint uses, loop-carried flows through
 * rare arms, sequential independent branches).
 */

#include <gtest/gtest.h>

#include <functional>

#include "analysis/annotation_checker.h"
#include "compiler/branch_dep.h"
#include "dependence_oracle.h"
#include "ir/diagnostics.h"
#include "ir/verifier.h"

namespace noreba {
namespace {

using testutil::DependenceOracle;
using testutil::Prepared;
using testutil::run;
using testutil::violationsFor;

/** Accumulator registers the generator may create flows through. */
constexpr Reg ACCS[] = {S5, S6, S7, S8, A6, A7};
/** Scratch registers for block-local values. */
constexpr Reg TMPS[] = {T0, T1, T2, T3, T4};

/**
 * Build a random program: an outer counted loop whose body is a random
 * nest of branches; arms mix accumulator updates (loop-carried),
 * region stores/loads (memory-carried) and block-local arithmetic.
 */
Program
randomProgram(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    Program prog("fuzz" + std::to_string(seed));

    const int64_t tableLen = 1 << 14;
    uint64_t table = prog.allocGlobal(tableLen * 8);
    for (int64_t i = 0; i < tableLen; ++i)
        prog.poke64(table + static_cast<uint64_t>(i) * 8, rng.next());
    uint64_t scratch = prog.allocGlobal(4096);
    const AliasRegion R_TABLE = 1, R_SCRATCH = 2;

    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int exit = b.newBlock("exit");

    b.at(entry)
        .li(S2, static_cast<int64_t>(table))
        .li(S9, static_cast<int64_t>(scratch))
        .li(S3, 0)
        .li(S4, 300 + static_cast<int64_t>(rng.below(200)))
        .li(S10, tableLen - 1)
        .li(S11, 0x9e3779b9)
        .fallthrough(loop);

    // Loop head: one fresh table load feeding the branch nest.
    b.at(loop)
        .mul(T0, S3, S11)
        .srli(T0, T0, 11)
        .and_(T0, T0, S10)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R_TABLE);

    // Random straight-line filler in a block.
    auto filler = [&](int count) {
        for (int i = 0; i < count; ++i) {
            Reg a = TMPS[rng.below(3) + 2]; // T2..T4
            switch (rng.below(4)) {
              case 0: b.addi(a, a, static_cast<int64_t>(rng.below(9)));
                break;
              case 1: b.xor_(a, a, TMPS[rng.below(5)]); break;
              case 2: b.srli(a, a, 1); break;
              default: b.add(a, a, TMPS[rng.below(5)]); break;
            }
        }
    };

    // One random "effect" for an arm.
    auto effect = [&]() {
        Reg acc = ACCS[rng.below(std::size(ACCS))];
        switch (rng.below(4)) {
          case 0: // loop-carried accumulator (the dangerous one)
            b.add(acc, acc, T1);
            break;
          case 1: // memory-carried through the scratch region
            b.andi(T2, T1, 511);
            b.sd(T1, S9, 8 * static_cast<int64_t>(rng.below(8)),
                 R_SCRATCH);
            break;
          case 2: // read back what some arm may have written
            b.ld(T3, S9, 8 * static_cast<int64_t>(rng.below(8)),
                 R_SCRATCH);
            b.add(acc, acc, T3);
            break;
          default: // same-iteration value only
            b.slli(T2, T1, 1);
            b.xor_(T2, T2, T1);
            break;
        }
    };

    // Recursive random nest. Returns the block to continue from.
    // depth limits nesting; every path ends at a fresh join block.
    std::function<void(int, int)> nest = [&](int depth, int joinBlk) {
        filler(static_cast<int>(rng.below(4)));
        if (depth == 0 || rng.chance(0.35)) {
            effect();
            b.jump(joinBlk);
            return;
        }
        switch (rng.below(3)) {
          case 0: { // if-then
            int thenB = b.newBlock();
            int after = b.newBlock();
            b.andi(T2, T1, 1 << rng.below(4));
            b.bne(T2, ZERO, thenB, after);
            b.at(thenB);
            nest(depth - 1, after);
            b.at(after);
            effect();
            b.jump(joinBlk);
            break;
          }
          case 1: { // if-then-else
            int thenB = b.newBlock();
            int elseB = b.newBlock();
            int after = b.newBlock();
            b.andi(T2, T1, 3 << rng.below(3));
            b.beq(T2, ZERO, elseB, thenB);
            b.at(thenB);
            nest(depth - 1, after);
            b.at(elseB);
            nest(depth - 1, after);
            b.at(after);
            filler(static_cast<int>(rng.below(3)));
            effect();
            b.jump(joinBlk);
            break;
          }
          default: { // 3-way jump table
            int h0 = b.newBlock();
            int h1 = b.newBlock();
            int h2 = b.newBlock();
            int after = b.newBlock();
            b.andi(T2, T1, 15);
            b.jumpTable(T2, {h0, h1, h2});
            b.at(h0);
            nest(depth - 1, after);
            b.at(h1);
            effect();
            b.jump(after);
            b.at(h2);
            b.jump(after);
            b.at(after);
            effect();
            b.jump(joinBlk);
            break;
          }
        }
    };

    int latch = b.newBlock("latch");
    nest(2, latch);

    b.at(latch)
        .addi(S3, S3, 1)
        .blt(S3, S4, loop, exit);
    b.at(exit).halt();

    prog.finalize();
    return prog;
}

class FuzzPass : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzPass, EndToEndInvariants)
{
    Program plain = randomProgram(GetParam());
    Program annotated = randomProgram(GetParam());
    PassResult res = runBranchDependencePass(annotated);

    // 1. Structure survives.
    {
        Diagnostics ds(annotated.name());
        ASSERT_TRUE(verifyStructure(annotated, ds)) << ds.toText();
    }
    EXPECT_GE(res.numMarkedBranches, 1);

    // 1b. The static verifier and the independent annotation checker
    //     accept both sides of the pass: no execution, second oracle.
    {
        Diagnostics dp(plain.name());
        EXPECT_TRUE(verifyProgram(plain, dp)) << dp.toText();
        EXPECT_TRUE(checkAnnotations(plain, dp)) << dp.toText();
        Diagnostics da(annotated.name());
        EXPECT_TRUE(verifyProgram(annotated, da)) << da.toText();
        CheckOptions copts;
        copts.requireAnnotations = true;
        EXPECT_TRUE(checkAnnotations(annotated, da, copts))
            << da.toText();
    }

    // 2. Semantics preserved.
    InterpOptions opts;
    opts.maxDynInsts = 25000;
    Interpreter ia(plain), ib(annotated);
    DynamicTrace ta = ia.run(opts);
    DynamicTrace tb = ib.run(opts);
    ASSERT_EQ(ia.regChecksum(), ib.regChecksum());
    ASSERT_EQ(ta.dynInsts, tb.dynInsts);

    // 3. Every guard reference is an older marked branch.
    for (size_t i = 0; i < tb.size(); ++i) {
        TraceIdx g = tb[i].guardIdx;
        if (g != TRACE_NONE) {
            ASSERT_LT(g, static_cast<TraceIdx>(i));
            ASSERT_TRUE(
                tb[static_cast<size_t>(g)].isBranchSite());
        }
    }

    // 4. Every policy retires the full trace.
    Prepared p;
    p.trace = std::move(tb);
    p.misp = precomputeMispredictions(p.trace);
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::NonSpecOoO,
          CommitMode::ValidationBuffer, CommitMode::Noreba,
          CommitMode::IdealReconv}) {
        CoreStats s = run(p, mode);
        ASSERT_EQ(s.committedInsts, p.trace.dynInsts)
            << commitModeName(mode);
    }

    // 5. No commit-order violations against the dataflow oracle.
    DependenceOracle oracle(annotated, p.trace);
    EXPECT_EQ(violationsFor(oracle, p, CommitMode::Noreba), 0);
    EXPECT_EQ(violationsFor(oracle, p, CommitMode::IdealReconv), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPass,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
} // namespace noreba
