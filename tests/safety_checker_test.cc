/**
 * @file
 * Dynamic soundness checker for the whole co-design.
 *
 * An oracle replays the trace in program order and computes, for every
 * dynamic instruction, the exact set of dynamic branch instances its
 * execution truly depends on:
 *  - control: every branch instance whose reconvergence point has not
 *    been reached yet when the instruction executes (plus, transitively,
 *    everything those branches depend on);
 *  - data: propagated through registers and through memory at
 *    word granularity.
 *
 * The property: a non-speculative commit policy (InO-C, NonSpec-OoO,
 * Noreba, IdealReconv) must never commit an instruction while a branch
 * it truly depends on is still unresolved — otherwise a misprediction
 * of that branch would have retired wrong-path state. This validates
 * the single-BranchID guard assignment (including chain merging) end
 * to end, against ground truth the compiler never sees.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "ir/dominance.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace noreba {
namespace {

using testutil::Prepared;
using testutil::prepare;

/** Dense bitset over dynamic branch instances. */
class DepBits
{
  public:
    explicit DepBits(size_t bits = 0) : words_((bits + 63) / 64, 0) {}
    void
    set(int i)
    {
        words_[static_cast<size_t>(i) >> 6] |= 1ull << (i & 63);
    }
    bool
    test(int i) const
    {
        return words_[static_cast<size_t>(i) >> 6] & (1ull << (i & 63));
    }
    void
    orWith(const DepBits &o)
    {
        for (size_t w = 0; w < words_.size(); ++w)
            words_[w] |= o.words_[w];
    }
    void resize(size_t bits) { words_.assign((bits + 63) / 64, 0); }

  private:
    std::vector<uint64_t> words_;
};

/** Ground-truth dependence sets for every trace record. */
class DependenceOracle
{
  public:
    DependenceOracle(const Program &prog, const DynamicTrace &trace)
    {
        const Function &fn = prog.function();
        const Layout &layout = prog.layout();

        // PC -> block id for reconvergence tracking.
        std::unordered_map<uint64_t, int> blockOfPc;
        for (int bb = 0; bb < static_cast<int>(fn.numBlocks()); ++bb)
            blockOfPc[layout.blockPc(bb)] = bb;
        // PC -> block of any instruction (for the branch's block).
        std::unordered_map<uint64_t, int> blockOfAnyPc;
        for (int bb = 0; bb < static_cast<int>(fn.numBlocks()); ++bb)
            for (size_t i = 0; i < fn.block(bb).insts.size(); ++i)
                blockOfAnyPc[layout.pc(bb, static_cast<int>(i))] = bb;

        DominatorTree pdom(fn, DominatorTree::Kind::PostDominators);

        // Number the branch instances.
        numBranches_ = 0;
        instanceOf_.assign(trace.size(), -1);
        for (size_t i = 0; i < trace.size(); ++i)
            if (trace[i].isBranchSite())
                instanceOf_[i] = numBranches_++;

        deps_.assign(trace.size(), DepBits(numBranches_));

        DepBits regDeps[NUM_ARCH_REGS];
        for (auto &d : regDeps)
            d.resize(numBranches_);
        std::unordered_map<uint64_t, DepBits> memDeps;

        struct Active
        {
            int instance;
            int reconvBlock; // -1: active forever
            DepBits deps;    // includes itself
        };
        std::vector<Active> active;

        for (size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord &rec = trace[i];

            // Entering a block pops every branch that reconverges here.
            auto blockIt = blockOfPc.find(rec.pc);
            if (blockIt != blockOfPc.end()) {
                int bb = blockIt->second;
                active.erase(
                    std::remove_if(active.begin(), active.end(),
                                   [bb](const Active &a) {
                                       return a.reconvBlock == bb;
                                   }),
                    active.end());
            }

            DepBits deps(numBranches_);
            for (const Active &a : active)
                deps.orWith(a.deps);
            for (Reg r : {rec.rs1, rec.rs2, rec.rs3})
                if (r != REG_NONE && r != REG_ZERO)
                    deps.orWith(regDeps[r]);
            if (isLoad(rec.op)) {
                for (uint64_t w = rec.addrOrImm >> 3;
                     w <= (rec.addrOrImm + rec.memSize - 1) >> 3; ++w) {
                    auto it = memDeps.find(w);
                    if (it != memDeps.end())
                        deps.orWith(it->second);
                }
            }

            deps_[i] = deps;

            if (rec.isBranchSite()) {
                int bb = blockOfAnyPc.at(rec.pc);
                Active a;
                a.instance = instanceOf_[i];
                a.reconvBlock = reconvergenceBlock(pdom, bb);
                a.deps = deps;
                a.deps.set(a.instance);
                active.push_back(a);
            }
            if (rec.rd > REG_ZERO || rec.rd >= FREG_BASE)
                regDeps[rec.rd] = deps;
            if (isStore(rec.op)) {
                for (uint64_t w = rec.addrOrImm >> 3;
                     w <= (rec.addrOrImm + rec.memSize - 1) >> 3; ++w) {
                    auto it = memDeps.emplace(w, DepBits(numBranches_))
                                  .first;
                    it->second = deps;
                }
            }
        }
    }

    /** Does record `idx` truly depend on the branch at `branchIdx`? */
    bool
    dependsOn(TraceIdx idx, TraceIdx branchIdx) const
    {
        int inst = instanceOf_[static_cast<size_t>(branchIdx)];
        return inst >= 0 && deps_[static_cast<size_t>(idx)].test(inst);
    }

    int numBranches() const { return numBranches_; }

  private:
    std::vector<DepBits> deps_;
    std::vector<int> instanceOf_;
    int numBranches_ = 0;
};

/** Run `mode` under the oracle and return the number of violations. */
int
violationsFor(const Program &prog, const Prepared &p, CommitMode mode)
{
    DependenceOracle oracle(prog, p.trace);
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = mode;
    Core core(cfg, p.trace, p.misp);

    int violations = 0;
    core.commitHook = [&](const PipelineView &c, const InFlight &inst) {
        for (const auto &e : c.unresolvedBranches()) {
            const TraceIdx u = e.idx;
            if (u >= inst.idx)
                break;
            if (oracle.dependsOn(inst.idx, u))
                ++violations;
        }
    };
    core.run();
    return violations;
}

TEST(Safety, DelinquentLoopAllNonSpeculativePolicies)
{
    Program prog = testutil::delinquentLoop(700);
    Prepared p = prepare(prog);
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::NonSpecOoO,
          CommitMode::Noreba, CommitMode::IdealReconv}) {
        EXPECT_EQ(violationsFor(prog, p, mode), 0)
            << commitModeName(mode);
    }
}

TEST(Safety, SpeculativeOracleDoesViolate)
{
    // Sanity check that the checker has teeth: the speculative oracle
    // commits across unresolved branches by design.
    Program prog = testutil::delinquentLoop(700);
    Prepared p = prepare(prog);
    EXPECT_GT(violationsFor(prog, p, CommitMode::SpeculativeBR), 0);
}

TEST(Safety, MultiDependenceDiamondStaysSound)
{
    // The chain-merge case: one value depends on two sequential
    // independent branches fed by slow loads.
    Program prog("diamond2");
    Rng rng(17);
    const int64_t n = 1 << 16;
    uint64_t buf = prog.allocGlobal(n * 8);
    for (int64_t i = 0; i < n; ++i)
        prog.poke64(buf + static_cast<uint64_t>(i) * 8, rng.next());
    IRBuilder b(prog);
    int e = b.newBlock();
    int loop = b.newBlock();
    int t1 = b.newBlock();
    int mid = b.newBlock();
    int t2 = b.newBlock();
    int join = b.newBlock();
    int exit = b.newBlock();
    const AliasRegion R = 1;
    b.at(e)
        .li(S2, static_cast<int64_t>(buf))
        .li(S3, 0)
        .li(S4, 600)
        .li(S7, n - 1)
        .li(S8, 0x9e3779b9)
        .fallthrough(loop);
    b.at(loop)
        .mul(T0, S3, S8)
        .srli(T0, T0, 13)
        .and_(T0, T0, S7)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R)
        .li(T2, 0)
        .li(T3, 0)
        .andi(T4, T1, 3)
        .beq(T4, ZERO, mid, t1);
    b.at(t1).li(T2, 5).jump(mid);
    b.at(mid).andi(T4, T1, 12).beq(T4, ZERO, join, t2);
    b.at(t2).li(T3, 7).jump(join);
    b.at(join)
        .add(S5, T2, T3) // depends on both branches
        .addi(S6, S6, 1) // independent
        .addi(S3, S3, 1)
        .blt(S3, S4, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    runBranchDependencePass(prog);

    Prepared p = prepare(prog);
    EXPECT_EQ(violationsFor(prog, p, CommitMode::Noreba), 0);
    EXPECT_EQ(violationsFor(prog, p, CommitMode::IdealReconv), 0);
}

TEST(Safety, WorkloadSubsetStaysSound)
{
    // End-to-end: real workload generators through the real pass.
    for (const char *name : {"mcf", "CRC32", "dijkstra", "bzip2"}) {
        Program prog = buildWorkload(name);
        runBranchDependencePass(prog);
        Prepared p = prepare(prog, 12000);
        EXPECT_EQ(violationsFor(prog, p, CommitMode::Noreba), 0)
            << name;
    }
}

TEST(Safety, MemoryCarriedDependence)
{
    // A value flows through memory out of the branch region; the
    // consumer must still wait (alias-driven data dependence).
    Program prog("memdep");
    Rng rng(23);
    const int64_t n = 1 << 16;
    uint64_t tab = prog.allocGlobal(n * 8);
    for (int64_t i = 0; i < n; ++i)
        prog.poke64(tab + static_cast<uint64_t>(i) * 8, rng.next());
    uint64_t cell = prog.allocGlobal(64);
    IRBuilder b(prog);
    int e = b.newBlock();
    int loop = b.newBlock();
    int t1 = b.newBlock();
    int join = b.newBlock();
    int exit = b.newBlock();
    const AliasRegion R_TAB = 1, R_CELL = 2;
    b.at(e)
        .li(S2, static_cast<int64_t>(tab))
        .li(S9, static_cast<int64_t>(cell))
        .li(S3, 0)
        .li(S4, 600)
        .li(S7, n - 1)
        .li(S8, 0x9e3779b9)
        .fallthrough(loop);
    b.at(loop)
        .mul(T0, S3, S8)
        .srli(T0, T0, 13)
        .and_(T0, T0, S7)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R_TAB)
        .andi(T2, T1, 7)
        .sw(ZERO, S9, 0, R_CELL)
        .beq(T2, ZERO, join, t1);
    b.at(t1).sw(T1, S9, 0, R_CELL).jump(join); // memory-carried value
    b.at(join)
        .lw(T3, S9, 0, R_CELL) // depends on the branch via memory
        .add(S5, S5, T3)
        .addi(S3, S3, 1)
        .blt(S3, S4, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    runBranchDependencePass(prog);

    Prepared p = prepare(prog);
    EXPECT_EQ(violationsFor(prog, p, CommitMode::Noreba), 0);
}

} // namespace
} // namespace noreba
