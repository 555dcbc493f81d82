/**
 * @file
 * Ground-truth dynamic dependence oracle, the spec the commit policies
 * are checked against.
 *
 * The oracle replays the trace in program order and computes, for every
 * dynamic instruction, the exact set of dynamic branch instances its
 * execution truly depends on:
 *  - control: every branch instance whose reconvergence point has not
 *    been reached yet when the instruction executes (plus, transitively,
 *    everything those branches depend on);
 *  - data: propagated through registers and through memory at
 *    word granularity.
 *
 * Attached to a Core as its observer, it counts one violation for
 * every (commit, older unresolved branch) pair where the committing
 * instruction truly depends on that branch. A non-speculative commit
 * policy must produce none: otherwise a misprediction of that branch
 * would have retired wrong-path state.
 */

#ifndef NOREBA_TESTS_DEPENDENCE_ORACLE_H
#define NOREBA_TESTS_DEPENDENCE_ORACLE_H

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ir/dominance.h"
#include "test_util.h"
#include "trace/observer.h"

namespace noreba::testutil {

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

  private:
    std::vector<uint64_t> words_;
};

class DependenceOracle : public CoreObserver
{
  public:
    /** Dependence sets for every record of @p trace, run from @p prog. */
    DependenceOracle(const Program &prog, TraceView trace)
    {
        const Function &fn = prog.function();
        const Layout &layout = prog.layout();

        // Block entry PC -> block, for reconvergence. An empty block
        // shares its entry PC with the next block, so it gets none.
        std::unordered_map<uint64_t, int> blockOfPc;
        // PC of any instruction -> its block (for the branch's block).
        std::unordered_map<uint64_t, int> blockOfAnyPc;
        for (int bb = 0; bb < static_cast<int>(fn.numBlocks()); ++bb) {
            if (!fn.block(bb).insts.empty())
                blockOfPc[layout.blockPc(bb)] = bb;
            for (size_t i = 0; i < fn.block(bb).insts.size(); ++i)
                blockOfAnyPc[layout.pc(bb, static_cast<int>(i))] = bb;
        }

        DominatorTree pdom(fn, DominatorTree::Kind::PostDominators);

        // Number the branch instances.
        int numBranches = 0;
        instanceOf_.assign(trace.size(), -1);
        for (size_t i = 0; i < trace.size(); ++i)
            if (trace.isBranchSiteAt(i))
                instanceOf_[i] = numBranches++;

        deps_.assign(trace.size(), DepBits(numBranches));
        std::vector<DepBits> regDeps(NUM_ARCH_REGS, DepBits(numBranches));
        std::unordered_map<uint64_t, DepBits> memDeps;

        struct Active
        {
            int reconvBlock; // -1: active forever
            DepBits deps;    // includes the branch itself
        };
        std::vector<Active> active;

        for (size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord rec = trace[i];

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

            DepBits &deps = deps_[i];
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

            if (rec.isBranchSite()) {
                Active a{reconvergenceBlock(pdom, blockOfAnyPc.at(rec.pc)),
                         deps};
                a.deps.set(instanceOf_[i]);
                active.push_back(std::move(a));
            }
            if (rec.rd > REG_ZERO || rec.rd >= FREG_BASE)
                regDeps[rec.rd] = deps;
            if (isStore(rec.op)) {
                for (uint64_t w = rec.addrOrImm >> 3;
                     w <= (rec.addrOrImm + rec.memSize - 1) >> 3; ++w)
                    memDeps.insert_or_assign(w, deps);
            }
        }
    }

    /** Violations counted over every run this oracle watched. */
    int violations() const { return violations_; }

    void
    onCommit(const PipelineView &view, const InFlight &inst) override
    {
        for (const auto &e : view.unresolvedBranches()) {
            if (e.idx >= inst.idx)
                break;
            if (dependsOn(inst.idx, e.idx))
                ++violations_;
        }
    }

  private:
    /** Does record `idx` truly depend on the branch at `branchIdx`? */
    bool
    dependsOn(TraceIdx idx, TraceIdx branchIdx) const
    {
        int inst = instanceOf_[static_cast<size_t>(branchIdx)];
        return inst >= 0 && deps_[static_cast<size_t>(idx)].test(inst);
    }

    std::vector<DepBits> deps_;
    std::vector<int> instanceOf_;
    int violations_ = 0;
};

/** Run @p p under @p mode watched by @p oracle; that run's violations. */
inline int
violationsFor(DependenceOracle &oracle, const Prepared &p, CommitMode mode)
{
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = mode;
    Core core(cfg, p.trace, p.misp);
    core.observe(&oracle);
    const int before = oracle.violations();
    core.run();
    return oracle.violations() - before;
}

} // namespace noreba::testutil

#endif // NOREBA_TESTS_DEPENDENCE_ORACLE_H
