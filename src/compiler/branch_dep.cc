#include "compiler/branch_dep.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "ir/dominance.h"
#include "ir/reaching_defs.h"
#include "isa/setup_encoding.h"

namespace noreba {

namespace {

/** Dense layout-order numbering of instructions across blocks. */
class GlobalIndex
{
  public:
    explicit GlobalIndex(const Function &fn)
    {
        offsets_.resize(fn.numBlocks());
        size_t off = 0;
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            offsets_[b] = off;
            off += fn.block(static_cast<int>(b)).insts.size();
        }
        total_ = off;
    }

    int at(int bb, int idx) const
    {
        return static_cast<int>(offsets_[bb] + static_cast<size_t>(idx));
    }

    size_t total() const { return total_; }

  private:
    std::vector<size_t> offsets_;
    size_t total_ = 0;
};

bool
isBranchSite(const Instruction &inst)
{
    return isCondBranch(inst.op) || inst.op == Opcode::JALR;
}

/** Step B: blocks reachable from the branch before its reconvergence. */
std::vector<int>
controlDependentBlocks(const Function &fn, int branchBb, int reconv)
{
    std::vector<int> result;
    std::vector<bool> visited(fn.numBlocks(), false);
    std::vector<int> stack;
    for (int s : fn.block(branchBb).succs)
        stack.push_back(s);
    while (!stack.empty()) {
        int b = stack.back();
        stack.pop_back();
        if (b == reconv || visited[b])
            continue;
        visited[b] = true;
        result.push_back(b);
        for (int s : fn.block(b).succs)
            stack.push_back(s);
    }
    std::sort(result.begin(), result.end());
    return result;
}

/** Bit helpers over plain vector<uint64_t>. */
struct Bits
{
    std::vector<uint64_t> w;
    explicit Bits(size_t n) : w((n + 63) / 64, 0) {}
    void set(int i) { w[static_cast<size_t>(i) >> 6] |= 1ull << (i & 63); }
    bool test(int i) const
    {
        return w[static_cast<size_t>(i) >> 6] & (1ull << (i & 63));
    }
};

} // namespace

PassResult
runBranchDependencePass(Program &prog)
{
    Function &fn = prog.function();
    fn.computeCFG();

    PassResult res;
    GlobalIndex gidx(fn);
    res.instsBefore = gidx.total();
    res.guardOfInst.assign(gidx.total(), -1);
    std::vector<uint8_t> orderStrict(gidx.total(), 0);

    //
    // Execution-order positions. Code layout need not match dynamic
    // order (a loop latch may be laid out before the body it follows),
    // so "younger/older" below uses reverse-postorder block positions:
    // within one loop iteration, an RPO-earlier instruction executes
    // earlier on every path that runs both.
    //
    DominatorTree pdom(fn, DominatorTree::Kind::PostDominators);
    DominatorTree dom(fn, DominatorTree::Kind::Dominators);

    std::vector<int64_t> orderPos(gidx.total(), 0);
    {
        const int nblk = static_cast<int>(fn.numBlocks());
        // Cumulative instruction positions in RPO block order;
        // unreachable blocks go last.
        auto rank = [&](int bb) {
            const int r = dom.rpoRank(bb);
            return r < 0 ? nblk : r;
        };
        std::vector<int> blocksByRank(nblk);
        for (int bb = 0; bb < nblk; ++bb)
            blocksByRank[bb] = bb;
        std::sort(blocksByRank.begin(), blocksByRank.end(),
                  [&](int a, int c) { return rank(a) < rank(c); });
        int64_t pos = 0;
        for (int bb : blocksByRank) {
            for (size_t i = 0; i < fn.block(bb).insts.size(); ++i)
                orderPos[gidx.at(bb, static_cast<int>(i))] = pos++;
        }
    }

    //
    // Step A: enumerate branch sites and their reconvergence points.
    //
    for (const auto &bb : fn.blocks()) {
        const Instruction *term = bb.terminator();
        if (!term || !isBranchSite(*term))
            continue;
        BranchSite site;
        site.bb = bb.id;
        site.instIdx = static_cast<int>(bb.insts.size()) - 1;
        site.globalIdx = gidx.at(bb.id, site.instIdx);
        site.reconvBlock = reconvergenceBlock(pdom, bb.id);
        res.branches.push_back(site);
    }
    const int nbranches = static_cast<int>(res.branches.size());
    const int nblocks = static_cast<int>(fn.numBlocks());

    //
    // Step B: control-dependent blocks per branch.
    //
    std::vector<Bits> controlBlockSet(
        static_cast<size_t>(nbranches), Bits(static_cast<size_t>(nblocks)));
    for (int b = 0; b < nbranches; ++b) {
        auto &site = res.branches[b];
        site.controlBlocks =
            controlDependentBlocks(fn, site.bb, site.reconvBlock);
        for (int blk : site.controlBlocks) {
            controlBlockSet[b].set(blk);
            site.numControlDeps +=
                static_cast<int>(fn.block(blk).insts.size());
        }
    }

    //
    // Step C: data-dependent instructions per branch, by taint
    // propagation over def-use chains and memory aliasing.
    //
    ReachingDefs rdefs(fn);

    // All store sites, for the alias sweep.
    std::vector<std::pair<int, int>> storeSites; // (bb, idx)
    for (const auto &bb : fn.blocks())
        for (size_t i = 0; i < bb.insts.size(); ++i)
            if (isStore(bb.insts[i].op))
                storeSites.emplace_back(bb.id, static_cast<int>(i));

    // depSet per instruction: indices into res.branches.
    std::vector<std::vector<int>> depSet(gidx.total());
    // Per-instruction set of branches from which tainted values can
    // arrive out of a *different dynamic instance* of their region
    // (cross-instance data flow). Whether that forces same-site
    // instance ordering is decided after guard assignment, when the
    // marking graph is known.
    std::vector<Bits> crossTaint(
        gidx.total(), Bits(static_cast<size_t>(std::max(nbranches, 1))));

    // Control dependences first (every containing branch; the innermost
    // is selected later).
    for (int b = 0; b < nbranches; ++b) {
        for (int blk : res.branches[b].controlBlocks) {
            const auto &bbRef = fn.block(blk);
            for (size_t i = 0; i < bbRef.insts.size(); ++i)
                depSet[gidx.at(blk, static_cast<int>(i))].push_back(b);
        }
    }

    std::vector<int> useBuf;
    for (int b = 0; b < nbranches; ++b) {
        Bits taintedInst(gidx.total());
        Bits taintedDef(static_cast<size_t>(rdefs.numDefs()) + 1);
        std::vector<std::pair<int, int>> taintedStores;

        // Seed: definitions and stores inside the control region.
        for (int blk : res.branches[b].controlBlocks) {
            const auto &bbRef = fn.block(blk);
            for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                int gi = gidx.at(blk, static_cast<int>(i));
                taintedInst.set(gi);
                int defId = rdefs.defIdAt(blk, static_cast<int>(i));
                if (defId >= 0)
                    taintedDef.set(defId);
                if (isStore(bbRef.insts[i].op))
                    taintedStores.emplace_back(blk, static_cast<int>(i));
            }
        }

        // Fixpoint sweep.
        bool changed = true;
        while (changed) {
            changed = false;
            for (int blk = 0; blk < nblocks; ++blk) {
                const auto &bbRef = fn.block(blk);
                auto scan = rdefs.scan(blk);
                for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                    const Instruction &inst = bbRef.insts[i];
                    int gi = gidx.at(blk, static_cast<int>(i));
                    if (!taintedInst.test(gi)) {
                        bool tainted = false;
                        Reg srcs[3];
                        int nsrc = sourceRegs(inst, srcs);
                        for (int s = 0; s < nsrc && !tainted; ++s) {
                            useBuf.clear();
                            scan.reachingDefs(srcs[s], useBuf);
                            for (int d : useBuf) {
                                if (taintedDef.test(d)) {
                                    tainted = true;
                                    break;
                                }
                            }
                        }
                        if (!tainted && isLoad(inst.op)) {
                            for (auto &[sb, si] : taintedStores) {
                                if (mayAlias(inst,
                                             fn.block(sb).insts[si])) {
                                    tainted = true;
                                    break;
                                }
                            }
                        }
                        if (tainted) {
                            taintedInst.set(gi);
                            int defId = rdefs.defIdAt(
                                blk, static_cast<int>(i));
                            if (defId >= 0)
                                taintedDef.set(defId);
                            if (isStore(inst.op))
                                taintedStores.emplace_back(
                                    blk, static_cast<int>(i));
                            changed = true;
                        }
                    }
                    scan.advance();
                }
            }
        }

        // Record data-dependent instructions (outside the control region).
        for (int blk = 0; blk < nblocks; ++blk) {
            if (controlBlockSet[b].test(blk))
                continue;
            const auto &bbRef = fn.block(blk);
            for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                int gi = gidx.at(blk, static_cast<int>(i));
                if (taintedInst.test(gi)) {
                    depSet[gi].push_back(b);
                    ++res.branches[b].numDataDeps;
                }
            }
        }

        // Cross-instance taint: can a value tainted by this branch
        // reach the instruction from a *different dynamic instance* of
        // the region? A flow counts as same-instance (exempt) only if
        // the def precedes the use in execution order, its block
        // dominates the use's block, AND the def's own inputs were
        // themselves same-instance — the property is transitive, since
        // a dominating def can still carry last iteration's data.
        // Computed as a fixpoint over def and store sites.
        {
            Bits crossDef(static_cast<size_t>(rdefs.numDefs()) + 1);
            Bits crossStoreByGi(gidx.total());
            bool growing = true;
            while (growing) {
                growing = false;
                for (int blk = 0; blk < nblocks; ++blk) {
                    const auto &bbRef = fn.block(blk);
                    auto scan = rdefs.scan(blk);
                    for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                        const Instruction &inst = bbRef.insts[i];
                        int gi = gidx.at(blk, static_cast<int>(i));
                        bool hit = crossTaint[gi].test(b);
                        if (!hit) {
                            Reg srcs[3];
                            int nsrc = sourceRegs(inst, srcs);
                            for (int k = 0; k < nsrc && !hit; ++k) {
                                useBuf.clear();
                                scan.reachingDefs(srcs[k], useBuf);
                                for (int d : useBuf) {
                                    if (!taintedDef.test(d))
                                        continue;
                                    const DefSite &ds = rdefs.def(d);
                                    bool fresh =
                                        orderPos[static_cast<size_t>(
                                            gidx.at(ds.bb, ds.idx))] <
                                            orderPos[static_cast<
                                                size_t>(gi)] &&
                                        dom.dominates(ds.bb, blk) &&
                                        !crossDef.test(d);
                                    if (!fresh) {
                                        hit = true;
                                        break;
                                    }
                                }
                            }
                            if (!hit && isLoad(inst.op)) {
                                for (auto &[sb, si] : taintedStores) {
                                    if (!mayAlias(
                                            inst,
                                            fn.block(sb).insts[si]))
                                        continue;
                                    int sgi = gidx.at(sb, si);
                                    bool fresh =
                                        orderPos[static_cast<size_t>(
                                            sgi)] <
                                            orderPos[static_cast<
                                                size_t>(gi)] &&
                                        dom.dominates(sb, blk) &&
                                        !crossStoreByGi.test(sgi);
                                    if (!fresh) {
                                        hit = true;
                                        break;
                                    }
                                }
                            }
                        }
                        if (hit) {
                            if (!crossTaint[gi].test(b)) {
                                crossTaint[gi].set(b);
                                growing = true;
                            }
                            int defId = rdefs.defIdAt(
                                blk, static_cast<int>(i));
                            if (defId >= 0 && !crossDef.test(defId)) {
                                crossDef.set(defId);
                                growing = true;
                            }
                            if (isStore(inst.op) &&
                                !crossStoreByGi.test(gi)) {
                                crossStoreByGi.set(gi);
                                growing = true;
                            }
                        }
                        scan.advance();
                    }
                }
            }
        }
    }

    //
    // Guard assignment: pick a single dependent branch per instruction.
    //
    // Each instruction's marking names one branch; the DCT binds it to
    // the *latest dynamic instance* of that branch at decode time. A
    // branch's own instruction is marked too, forming a directed
    // "marking graph" over static branches. The graph may be cyclic
    // (e.g. a loop branch marked on an inner if, whose arms are marked
    // on the loop branch): dynamically every edge steps to a strictly
    // older instance, so chains always terminate. Coverage therefore
    // uses cycle-tolerant reachability: every true dependence of an
    // instruction must be reachable from its guard in the marking
    // graph; when one is not, the pass attaches it by marking an
    // unmarked chain member (serializing just enough). Instances of a
    // single static branch are ordered by the hardware (the Selective
    // ROB appends same-site branches to one queue), which the commit
    // conditions rely on. tests/dependence_oracle.h checks the
    // end-to-end property against ground-truth dataflow.
    //
    std::vector<int> mark(nbranches, -1); // per-branch marking edge

    // Branch lookup by global index.
    std::vector<int> branchAtGlobal(gidx.total(), -1);
    for (int b = 0; b < nbranches; ++b)
        branchAtGlobal[res.branches[b].globalIdx] = b;

    // Branches reachable from g (inclusive) via marking edges.
    auto reachFrom = [&](int g, std::vector<bool> &seen) {
        int cur = g;
        while (cur >= 0 && !seen[cur]) {
            seen[cur] = true;
            cur = mark[cur];
        }
    };

    auto covered = [&](int g, const std::vector<int> &deps,
                       int skipSelf) {
        std::vector<bool> seen(nbranches, false);
        reachFrom(g, seen);
        for (int d : deps)
            if (d != skipSelf && !seen[d])
                return false;
        return true;
    };

    // The guard is the *dynamically youngest* dependence: the branch
    // with the largest execution-order position before the instruction
    // (its latest dynamic instance at decode time is the most recent),
    // falling back to the largest position overall (a loop back-edge
    // branch, whose latest instance is the previous iteration's). For
    // nested control this coincides with the paper's innermost rule.
    auto posOfBranch = [&](int d) {
        return orderPos[static_cast<size_t>(res.branches[d].globalIdx)];
    };

    // A branch d can serve as the marking of something in block `blk`
    // only when its BIT entry is guaranteed fresh there: d's block must
    // dominate blk (d ran earlier this iteration on every path) or
    // post-dominate it (d runs every iteration, so the latest instance
    // is exactly one iteration back). A conditionally-executed branch
    // fails both, and its BIT entry may be stale or unset.
    auto validGuard = [&](int d, int blk) {
        int db = res.branches[d].bb;
        return dom.dominates(db, blk) || pdom.dominates(db, blk);
    };

    auto youngestDep = [&](int64_t giPos, const std::vector<int> &deps,
                           int skipSelf, int blk) {
        int best = -1;
        bool bestPrecedes = false;
        for (int d : deps) {
            if (d == skipSelf || !validGuard(d, blk))
                continue;
            bool precedes = posOfBranch(d) < giPos;
            bool better;
            if (best < 0) {
                better = true;
            } else if (precedes != bestPrecedes) {
                better = precedes;
            } else {
                better = posOfBranch(d) > posOfBranch(best);
            }
            if (better) {
                best = d;
                bestPrecedes = precedes;
            }
        }
        return best;
    };

    for (int blk = 0; blk < nblocks; ++blk) {
        const auto &bbRef = fn.block(blk);
        for (size_t i = 0; i < bbRef.insts.size(); ++i) {
            int gi = gidx.at(blk, static_cast<int>(i));
            const std::vector<int> &deps = depSet[gi];
            if (deps.empty())
                continue;
            int self = branchAtGlobal[gi];

            int g = youngestDep(orderPos[static_cast<size_t>(gi)],
                                deps, self, blk);
            if (g < 0) {
                // No valid marking exists but dependences do: fall
                // back to strict in-order commit for this instruction
                // (any dep here is either self — hardware ordered — or
                // a conditional branch the chain cannot bind).
                for (int d : deps) {
                    if (d != self) {
                        orderStrict[gi] = 1;
                        break;
                    }
                }
                continue;
            }

            // Attach any uncovered dependence by inserting it into the
            // guard's chain in layout-descending position: an edge from
            // a later-in-layout branch to an earlier one always binds
            // the same dynamic iteration's instance, keeping the chain
            // fresh. Insertions are lossless (nothing previously
            // reachable is dropped), so earlier coverage is preserved.
            if (!covered(g, deps, self)) {
                for (int d : deps) {
                    if (d == self)
                        continue;
                    std::vector<bool> seen(nbranches, false);
                    reachFrom(g, seen);
                    if (seen[d])
                        continue;
                    // Walk to the insertion point: after the last chain
                    // element that follows d in execution order, but
                    // never past an ascending edge — a later target
                    // binds the *previous* dynamic iteration, so
                    // anything inserted beyond it would be stale.
                    int prev = g;
                    int cur = mark[g];
                    std::vector<bool> walked(nbranches, false);
                    walked[g] = true;
                    while (cur >= 0 && !walked[cur] &&
                           posOfBranch(cur) < posOfBranch(prev) &&
                           posOfBranch(cur) > posOfBranch(d)) {
                        walked[cur] = true;
                        prev = cur;
                        cur = mark[cur];
                    }
                    // The new edge prev -> d must itself be fresh.
                    if (!validGuard(d, res.branches[prev].bb))
                        continue; // handled by the strict fallback
                    if (mark[d] < 0) {
                        mark[prev] = d;
                        mark[d] = cur == d ? -1 : cur;
                        ++res.numChainMerges;
                    } else {
                        // d already chains elsewhere: splice only if
                        // the remainder stays reachable through d.
                        std::vector<bool> viaD(nbranches, false);
                        reachFrom(d, viaD);
                        if (cur < 0 || viaD[cur]) {
                            mark[prev] = d;
                            ++res.numChainMerges;
                        }
                    }
                }
                // Anything still unreachable cannot be expressed with
                // one BranchID: force strict in-order commit instead.
                if (!covered(g, deps, self)) {
                    orderStrict[gi] = 1;
                    ++res.numStrictRegions;
                }
            }

            res.guardOfInst[gi] = g;
            if (self >= 0 && mark[self] != g) {
                // Re-pointing a branch's own edge at its guard must not
                // orphan a chain tail that earlier instructions rely
                // on: keep the old edge when the new one cannot still
                // reach it (reachability is re-checked with the edge
                // tentatively flipped, so a cycle through self does not
                // count as reaching the tail).
                int old = mark[self];
                mark[self] = g;
                if (old >= 0) {
                    std::vector<bool> seen(nbranches, false);
                    reachFrom(self, seen);
                    if (!seen[old])
                        mark[self] = old;
                }
            }
        }
    }

    // A branch's own marking must reflect attachments applied after it
    // was visited.
    for (int b = 0; b < nbranches; ++b) {
        res.branches[b].guard = mark[b];
        if (mark[b] >= 0)
            res.guardOfInst[res.branches[b].globalIdx] = mark[b];
    }

    //
    // Order sensitivity. Any instruction that can consume a value from
    // a *different dynamic instance* of a dependence region must
    // re-validate its whole guard chain at commit (each chain site
    // free of older unresolved instances): the chain names only the
    // latest instance per site, and a misprediction squash can put an
    // older instance back in flight even after the direct guard
    // committed. Same-instance (forward, dominating) flows were
    // already exempted when crossTaint was built.
    //
    std::vector<uint8_t> orderSensitive(gidx.total(), 0);
    for (size_t gi = 0; gi < gidx.total(); ++gi) {
        if (res.guardOfInst[gi] < 0)
            continue;
        for (int b = 0; b < nbranches; ++b) {
            if (crossTaint[gi].test(b)) {
                orderSensitive[gi] = 1;
                break;
            }
        }
    }

    //
    // Multi-core barriers (Section 4.5): a FENCE and everything younger
    // commit in program order. The Selective ROB enforces this at run
    // time (no instruction may commit past an older uncommitted FENCE,
    // and the FENCE itself commits only at the in-order frontier); the
    // pass keeps every FENCE unmarked so it always steers through the
    // PR-CQ, and dependency regions naturally break around it.
    //
    for (const auto &bb : fn.blocks()) {
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            if (bb.insts[i].op == Opcode::FENCE)
                res.guardOfInst[gidx.at(bb.id, static_cast<int>(i))] =
                    -1;
        }
    }

    //
    // Step D: assign compiler IDs and insert the setup instructions.
    //
    std::vector<bool> marked(nbranches, false);
    for (size_t gi = 0; gi < gidx.total(); ++gi) {
        int g = res.guardOfInst[gi];
        std::vector<bool> seen(nbranches, false);
        while (g >= 0 && !seen[g]) {
            seen[g] = true;
            marked[g] = true;
            g = mark[g];
        }
    }
    int nextId = 1;
    const int usableIds = NUM_BRANCH_IDS - 1;
    for (int b = 0; b < nbranches; ++b) {
        if (!marked[b]) {
            res.branches[b].compilerId = 0;
            continue;
        }
        res.branches[b].compilerId = nextId;
        nextId = nextId % usableIds + 1;
        ++res.numMarkedBranches;
    }
    for (int blk = 0; blk < nblocks; ++blk) {
        auto &bbRef = fn.block(blk);
        std::vector<Instruction> out;
        out.reserve(bbRef.insts.size() * 2);
        size_t i = 0;
        while (i < bbRef.insts.size()) {
            int gi = gidx.at(blk, static_cast<int>(i));
            int g = res.guardOfInst[gi];
            // One region per same-guard run; it is order sensitive
            // if any covered instruction is (conservative OR keeps
            // regions long — one setup instruction per run).
            bool sens = orderSensitive[gi] != 0;
            bool strict = orderStrict[gi] != 0;
            size_t runLen = 1;
            while (i + runLen < bbRef.insts.size()) {
                int gi2 =
                    gidx.at(blk, static_cast<int>(i + runLen));
                if (res.guardOfInst[gi2] != g)
                    break;
                sens = sens || orderSensitive[gi2] != 0;
                strict = strict || orderStrict[gi2] != 0;
                ++runLen;
            }
            if (g >= 0) {
                out.push_back(makeSetDependency(
                    static_cast<int>(runLen),
                    res.branches[g].compilerId, sens, strict));
                ++res.numSetupInsts;
                ++res.numRegions;
            } else if (strict) {
                // Strict instructions with no expressible guard
                // still need a region so the flag reaches the
                // hardware; ID 0 marks "no dependence tracking".
                out.push_back(makeSetDependency(
                    static_cast<int>(runLen), 0, false, true));
                ++res.numSetupInsts;
                ++res.numRegions;
            }
            for (size_t k = 0; k < runLen; ++k) {
                int bIdx =
                    branchAtGlobal[gidx.at(blk,
                                           static_cast<int>(i + k))];
                if (bIdx >= 0 && res.branches[bIdx].compilerId > 0) {
                    out.push_back(makeSetBranchId(
                        res.branches[bIdx].compilerId));
                    ++res.numSetupInsts;
                }
                out.push_back(bbRef.insts[i + k]);
            }
            i += runLen;
        }
        bbRef.insts = std::move(out);
    }
    prog.finalize();
    GlobalIndex after(fn);
    res.instsAfter = after.total();

    return res;
}

std::string
PassResult::report() const
{
    std::ostringstream os;
    os << "branch dependent code detection pass\n"
       << "  branch sites:        " << branches.size() << '\n'
       << "  marked branches:     " << numMarkedBranches << '\n'
       << "  dependency regions:  " << numRegions << '\n'
       << "  setup instructions:  " << numSetupInsts << '\n'
       << "  chain merges:        " << numChainMerges << '\n'
       << "  static insts:        " << instsBefore << " -> " << instsAfter
       << '\n';
    return os.str();
}

} // namespace noreba
