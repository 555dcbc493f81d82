/** @file Unit tests for reaching definitions and the alias oracle. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/annotation_checker.h"
#include "common/rng.h"
#include "ir/builder.h"
#include "ir/dominance.h"
#include "ir/reaching_defs.h"

namespace noreba {
namespace {

TEST(ReachingDefs, StraightLineKill)
{
    Program prog("straight");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .li(T0, 1)      // def 0
        .li(T0, 2)      // def 1 kills def 0
        .add(T1, T0, T0) // use of T0
        .halt();
    prog.finalize();
    ReachingDefs rd(prog.function());

    auto scan = rd.scan(e);
    scan.advance(); // past def 0
    scan.advance(); // past def 1
    std::vector<int> defs;
    scan.reachingDefs(T0, defs);
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(rd.def(defs[0]).idx, 1);
}

TEST(ReachingDefs, MergeAtJoin)
{
    Program prog("joiny");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int thenB = b.newBlock("then");
    int elseB = b.newBlock("else");
    int join = b.newBlock("join");
    b.at(entry).li(T1, 0).beq(T1, ZERO, elseB, thenB);
    b.at(thenB).li(T0, 1).jump(join);  // def A
    b.at(elseB).li(T0, 2).jump(join);  // def B
    b.at(join).add(T2, T0, T0).halt(); // both defs reach
    prog.finalize();
    ReachingDefs rd(prog.function());

    auto scan = rd.scan(join);
    std::vector<int> defs;
    scan.reachingDefs(T0, defs);
    EXPECT_EQ(defs.size(), 2u);
}

TEST(ReachingDefs, LoopCarriedDefReachesBlockTop)
{
    Program prog("loopy");
    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int body = b.newBlock("body");
    int exit = b.newBlock("exit");
    b.at(entry).li(T0, 0).fallthrough(body);
    b.at(body).addi(T0, T0, 1).slti(T1, T0, 5).bne(T1, ZERO, body, exit);
    b.at(exit).halt();
    prog.finalize();
    ReachingDefs rd(prog.function());

    // At the top of body, both the entry def and the loop def reach.
    auto scan = rd.scan(body);
    std::vector<int> defs;
    scan.reachingDefs(T0, defs);
    EXPECT_EQ(defs.size(), 2u);
}

TEST(ReachingDefs, X0IsNeverDefined)
{
    Program prog("zero");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).add(ZERO, T0, T0).add(T1, ZERO, T0).halt();
    prog.finalize();
    ReachingDefs rd(prog.function());

    auto scan = rd.scan(e);
    scan.advance();
    std::vector<int> defs;
    scan.reachingDefs(ZERO, defs);
    EXPECT_TRUE(defs.empty());
}

TEST(ReachingDefs, DefIdAtMatchesSites)
{
    Program prog("ids");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e).li(T0, 1).nop().li(T1, 2).halt();
    prog.finalize();
    ReachingDefs rd(prog.function());
    EXPECT_GE(rd.defIdAt(e, 0), 0);
    EXPECT_EQ(rd.defIdAt(e, 1), -1); // nop defines nothing
    EXPECT_GE(rd.defIdAt(e, 2), 0);
    EXPECT_EQ(rd.numDefs(), 2);
}

/** @name mayAlias @{ */

Instruction
memInst(Opcode op, Reg base, int64_t off, AliasRegion region)
{
    Instruction inst;
    inst.op = op;
    inst.rs1 = base;
    inst.imm = off;
    inst.aliasRegion = region;
    if (isLoad(op))
        inst.rd = T0;
    else
        inst.rs2 = T0;
    return inst;
}

TEST(MayAlias, DisjointStackSlots)
{
    Instruction a = memInst(Opcode::SW, REG_SP, -20, 0);
    Instruction b = memInst(Opcode::LW, REG_SP, -24, 0);
    EXPECT_FALSE(mayAlias(a, b));
}

TEST(MayAlias, SameStackSlot)
{
    Instruction a = memInst(Opcode::SW, REG_SP, -20, 0);
    Instruction b = memInst(Opcode::LW, REG_SP, -20, 0);
    EXPECT_TRUE(mayAlias(a, b));
}

TEST(MayAlias, PartialOverlapOnStack)
{
    Instruction a = memInst(Opcode::SD, REG_SP, -24, 0); // [-24,-16)
    Instruction b = memInst(Opcode::LW, REG_SP, -20, 0); // [-20,-16)
    EXPECT_TRUE(mayAlias(a, b));
}

TEST(MayAlias, DistinctRegionsDontAlias)
{
    Instruction a = memInst(Opcode::SW, T1, 0, 1);
    Instruction b = memInst(Opcode::LW, T2, 0, 2);
    EXPECT_FALSE(mayAlias(a, b));
}

TEST(MayAlias, SameRegionAliases)
{
    Instruction a = memInst(Opcode::SW, T1, 0, 3);
    Instruction b = memInst(Opcode::LW, T2, 64, 3);
    EXPECT_TRUE(mayAlias(a, b));
}

TEST(MayAlias, UnknownAliasesEverything)
{
    Instruction a = memInst(Opcode::SW, T1, 0, ALIAS_UNKNOWN);
    Instruction b = memInst(Opcode::LW, T2, 0, 7);
    Instruction c = memInst(Opcode::LW, REG_SP, -8, 0);
    EXPECT_TRUE(mayAlias(a, b));
    EXPECT_TRUE(mayAlias(a, c));
}

TEST(MayAlias, StackNeverAliasesHeapRegion)
{
    Instruction a = memInst(Opcode::SW, REG_SP, -8, 0);
    Instruction b = memInst(Opcode::LW, T2, 0, 5);
    EXPECT_FALSE(mayAlias(a, b));
}

TEST(MayAlias, NonMemoryNeverAliases)
{
    Instruction a;
    a.op = Opcode::ADD;
    Instruction b = memInst(Opcode::LW, T2, 0, ALIAS_UNKNOWN);
    EXPECT_FALSE(mayAlias(a, b));
}

/** @} */

/**
 * @defgroup fixpoints Production fixpoints against reference solvers
 *
 * Bit-identity checks of the two production set-dataflow solves
 * (ReachingDefs, the checker's DomSets) against independent
 * round-robin reference solvers over std::set. A monotone gen/kill
 * frame has a unique fixpoint, so they must agree exactly.
 * @{
 */

/**
 * A random but well-formed CFG: minBlocks..maxBlocks blocks of ALU
 * traffic with arbitrary branch/jump/halt terminators (loops,
 * diamonds, and unreachable blocks all arise). Purely static fodder —
 * never executed.
 */
Program
randomCfg(uint64_t seed, int minBlocks = 4, int maxBlocks = 8)
{
    Rng rng(seed);
    Program prog("randcfg");
    IRBuilder b(prog);
    const int n = minBlocks + static_cast<int>(rng.below(
                                  static_cast<uint64_t>(
                                      maxBlocks - minBlocks + 1)));
    std::vector<int> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(b.newBlock());
    const Reg pool[] = {T0, T1, T2, S2, S3, S4};
    for (int i = 0; i < n; ++i) {
        b.at(ids[i]);
        const int len = 1 + static_cast<int>(rng.below(4));
        for (int k = 0; k < len; ++k) {
            Reg rd = pool[rng.below(6)];
            if (rng.below(3) == 0)
                b.li(rd, static_cast<int64_t>(rng.below(100)));
            else
                b.add(rd, pool[rng.below(6)], pool[rng.below(6)]);
        }
        int t = ids[rng.below(static_cast<uint64_t>(n))];
        int f = ids[rng.below(static_cast<uint64_t>(n))];
        // The last block always halts so the program verifies.
        switch (i == n - 1 ? 0 : rng.below(4)) {
        case 0:
            b.halt();
            break;
        case 1:
            b.jump(t);
            break;
        default:
            b.beq(pool[rng.below(6)], pool[rng.below(6)], t, f);
            break;
        }
    }
    prog.finalize();
    return prog;
}

/** Seeds 1-25 give small CFGs. Seeds 26-30 give 65-80 blocks, so
 *  DomSets rows span two words and ReachingDefs numbers more than 64
 *  defs: both solvers' multi-word rows and tail masks are exercised. */
constexpr uint64_t LAST_SMALL_SEED = 25, LAST_SEED = 30;

Program
referenceCfg(uint64_t seed)
{
    return seed <= LAST_SMALL_SEED ? randomCfg(seed)
                                   : randomCfg(seed, 65, 80);
}

/** Reference reaching defs: classic round-robin iteration over def
 *  sites identified by (bb, idx) so the comparison is numbering-
 *  agnostic. Returns, per block, the set of (bb, idx) defs of `reg`
 *  reaching the block top. */
std::vector<std::set<std::pair<int, int>>>
referenceReachingAtTop(const Function &fn, Reg reg)
{
    const int n = static_cast<int>(fn.numBlocks());
    struct Def { int bb, idx; Reg reg; };
    std::vector<Def> defs;
    for (int bb = 0; bb < n; ++bb) {
        const auto &insts = fn.block(bb).insts;
        for (int i = 0; i < static_cast<int>(insts.size()); ++i)
            if (insts[i].hasDest())
                defs.push_back({bb, i, insts[i].rd});
    }
    const int nd = static_cast<int>(defs.size());
    std::vector<std::set<int>> gen(static_cast<size_t>(n)),
        out(static_cast<size_t>(n)), in(static_cast<size_t>(n));
    std::vector<std::set<int>> killRegs(static_cast<size_t>(n));
    for (int bb = 0; bb < n; ++bb) {
        std::map<Reg, int> last;
        for (int d = 0; d < nd; ++d)
            if (defs[static_cast<size_t>(d)].bb == bb)
                last[defs[static_cast<size_t>(d)].reg] = d;
        for (auto &[r, d] : last) {
            gen[static_cast<size_t>(bb)].insert(d);
            killRegs[static_cast<size_t>(bb)].insert(r);
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (int bb = 0; bb < n; ++bb) {
            std::set<int> newIn;
            for (int p : fn.block(bb).preds)
                for (int d : out[static_cast<size_t>(p)])
                    newIn.insert(d);
            std::set<int> newOut = gen[static_cast<size_t>(bb)];
            for (int d : newIn)
                if (!killRegs[static_cast<size_t>(bb)].count(
                        defs[static_cast<size_t>(d)].reg))
                    newOut.insert(d);
            if (newIn != in[static_cast<size_t>(bb)] ||
                newOut != out[static_cast<size_t>(bb)]) {
                in[static_cast<size_t>(bb)] = std::move(newIn);
                out[static_cast<size_t>(bb)] = std::move(newOut);
                changed = true;
            }
        }
    }
    std::vector<std::set<std::pair<int, int>>> res(
        static_cast<size_t>(n));
    for (int bb = 0; bb < n; ++bb)
        for (int d : in[static_cast<size_t>(bb)])
            if (defs[static_cast<size_t>(d)].reg == reg)
                res[static_cast<size_t>(bb)].emplace(
                    defs[static_cast<size_t>(d)].bb,
                    defs[static_cast<size_t>(d)].idx);
    return res;
}

TEST(DataflowEngine, ReachingDefsMatchesRoundRobinReference)
{
    const Reg pool[] = {T0, T1, T2, S2, S3, S4};
    for (uint64_t seed = 1; seed <= LAST_SEED; ++seed) {
        Program prog = referenceCfg(seed);
        const Function &fn = prog.function();
        ReachingDefs rd(fn);
        if (seed > LAST_SMALL_SEED) {
            EXPECT_GT(rd.numDefs(), 64) << "seed " << seed;
        }
        for (Reg reg : pool) {
            auto ref = referenceReachingAtTop(fn, reg);
            for (int bb = 0; bb < static_cast<int>(fn.numBlocks());
                 ++bb) {
                std::vector<int> ids;
                rd.scan(bb).reachingDefs(reg, ids);
                std::set<std::pair<int, int>> got;
                for (int id : ids)
                    got.emplace(rd.def(id).bb, rd.def(id).idx);
                EXPECT_EQ(got, ref[static_cast<size_t>(bb)])
                    << "seed " << seed << " reg " << reg << " bb "
                    << bb;
            }
        }
    }
}

/** Reference (post)dominators: round-robin set dataflow over the
 *  checker's walk graph (virtual entry feeding fn.entry(), or a
 *  virtual exit fed by every HALT block on the reversed CFG). */
std::vector<std::set<int>>
referenceDomSets(const Function &fn, bool post)
{
    const int n = static_cast<int>(fn.numBlocks());
    const int root = n;
    std::vector<std::vector<int>> preds(static_cast<size_t>(n + 1));
    std::vector<bool> reach(static_cast<size_t>(n + 1), false);
    std::vector<int> stack{root};
    std::vector<std::vector<int>> succs(static_cast<size_t>(n + 1));
    if (!post) {
        preds[static_cast<size_t>(fn.entry())].push_back(root);
        succs[static_cast<size_t>(root)].push_back(fn.entry());
        for (int b = 0; b < n; ++b)
            for (int s : fn.block(b).succs) {
                preds[static_cast<size_t>(s)].push_back(b);
                succs[static_cast<size_t>(b)].push_back(s);
            }
    } else {
        for (int b = 0; b < n; ++b) {
            const Instruction *term = fn.block(b).terminator();
            if (term && term->op == Opcode::HALT) {
                preds[static_cast<size_t>(b)].push_back(root);
                succs[static_cast<size_t>(root)].push_back(b);
            }
            for (int s : fn.block(b).succs) {
                preds[static_cast<size_t>(b)].push_back(s);
                succs[static_cast<size_t>(s)].push_back(b);
            }
        }
    }
    reach[static_cast<size_t>(root)] = true;
    while (!stack.empty()) {
        int b = stack.back();
        stack.pop_back();
        for (int s : succs[static_cast<size_t>(b)])
            if (!reach[static_cast<size_t>(s)]) {
                reach[static_cast<size_t>(s)] = true;
                stack.push_back(s);
            }
    }
    std::set<int> all;
    for (int b = 0; b <= n; ++b)
        all.insert(b);
    std::vector<std::set<int>> dom(static_cast<size_t>(n + 1), all);
    dom[static_cast<size_t>(root)] = {root};
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = 0; b < n + 1; ++b) {
            if (b == root || !reach[static_cast<size_t>(b)])
                continue;
            std::set<int> nd = all;
            for (int p : preds[static_cast<size_t>(b)]) {
                if (!reach[static_cast<size_t>(p)])
                    continue;
                std::set<int> isect;
                for (int x : dom[static_cast<size_t>(p)])
                    if (nd.count(x))
                        isect.insert(x);
                nd = std::move(isect);
            }
            nd.insert(b);
            if (nd != dom[static_cast<size_t>(b)]) {
                dom[static_cast<size_t>(b)] = std::move(nd);
                changed = true;
            }
        }
    }
    for (int b = 0; b < n; ++b)
        if (!reach[static_cast<size_t>(b)])
            dom[static_cast<size_t>(b)] = {b};
    for (auto &s : dom)
        s.erase(root);
    dom.resize(static_cast<size_t>(n));
    return dom;
}

TEST(DataflowEngine, DomSetsMatchRoundRobinReference)
{
    for (uint64_t seed = 1; seed <= LAST_SEED; ++seed) {
        Program prog = referenceCfg(seed);
        const Function &fn = prog.function();
        const int n = static_cast<int>(fn.numBlocks());
        if (seed > LAST_SMALL_SEED) {
            EXPECT_GE(n + 1, 65) << "seed " << seed; // two-word rows
        }
        for (bool post : {false, true}) {
            DomSets ds(fn, post);
            DominatorTree tree(fn, post
                                       ? DominatorTree::Kind::
                                             PostDominators
                                       : DominatorTree::Kind::
                                             Dominators);
            auto ref = referenceDomSets(fn, post);
            for (int b = 0; b < n; ++b) {
                EXPECT_EQ(ds.idom(b), tree.idom(b))
                    << "seed " << seed << " post " << post << " bb "
                    << b;
                for (int a = 0; a < n; ++a)
                    EXPECT_EQ(ds.dominates(a, b),
                              ref[static_cast<size_t>(b)].count(a) >
                                  0)
                        << "seed " << seed << " post " << post << " "
                        << a << " dom " << b;
            }
        }
    }
}

/** @} */

} // namespace
} // namespace noreba
