#include "analysis/annotation_checker.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "isa/setup_encoding.h"

namespace noreba {

namespace {

/**
 * Plain bit vector. The checker deliberately shares no analysis helpers
 * with the pass it validates, down to trivia like this.
 */
class BitVec
{
  public:
    BitVec() = default;
    explicit BitVec(size_t n) : n_(n), w_((n + 63) / 64, 0) {}

    void set(size_t i) { w_[i >> 6] |= uint64_t{1} << (i & 63); }
    void clear(size_t i) { w_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
    bool test(size_t i) const
    {
        return (w_[i >> 6] >> (i & 63)) & 1;
    }
    void setAll()
    {
        std::fill(w_.begin(), w_.end(), ~uint64_t{0});
        maskTail();
    }
    void clearAll() { std::fill(w_.begin(), w_.end(), 0); }

    /** this |= o; returns true if any bit changed. */
    bool orWith(const BitVec &o)
    {
        bool changed = false;
        for (size_t i = 0; i < w_.size(); ++i) {
            uint64_t v = w_[i] | o.w_[i];
            changed = changed || v != w_[i];
            w_[i] = v;
        }
        return changed;
    }
    void andWith(const BitVec &o)
    {
        for (size_t i = 0; i < w_.size(); ++i)
            w_[i] &= o.w_[i];
    }

    bool operator==(const BitVec &o) const { return w_ == o.w_; }
    bool operator!=(const BitVec &o) const { return w_ != o.w_; }

    size_t count() const
    {
        size_t c = 0;
        for (uint64_t v : w_)
            while (v) {
                v &= v - 1;
                ++c;
            }
        return c;
    }
    bool any() const
    {
        for (uint64_t v : w_)
            if (v)
                return true;
        return false;
    }
    size_t size() const { return n_; }

  private:
    void maskTail()
    {
        if (n_ % 64 && !w_.empty())
            w_.back() &= (uint64_t{1} << (n_ % 64)) - 1;
    }
    size_t n_ = 0;
    std::vector<uint64_t> w_;
};

/** Dense layout-order instruction numbering. */
struct InstIndex
{
    std::vector<size_t> base;
    size_t total = 0;

    explicit InstIndex(const Function &fn)
    {
        base.resize(fn.numBlocks());
        size_t n = 0;
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            base[b] = n;
            n += fn.block(static_cast<int>(b)).insts.size();
        }
        total = n;
    }
    int at(int bb, int i) const
    {
        return static_cast<int>(base[bb] + static_cast<size_t>(i));
    }
};

SourceLoc
locAt(const Function &fn, int bb, int idx = -1)
{
    SourceLoc loc;
    loc.block = bb;
    if (bb >= 0 && bb < static_cast<int>(fn.numBlocks()))
        loc.blockLabel = fn.block(bb).label;
    loc.instIdx = idx;
    return loc;
}

bool
isBranchSiteOp(const Instruction &inst)
{
    return isCondBranch(inst.op) || inst.op == Opcode::JALR;
}

/**
 * Conservative memory overlap, equivalent in meaning to the pass's
 * alias oracle but reimplemented: unknown-region accesses may touch
 * anything; sp/fp slots are exact byte ranges and never overlap named
 * regions; named regions overlap iff equal.
 */
bool
memMayOverlap(const Instruction &a, const Instruction &b)
{
    if (!isMem(a.op) || !isMem(b.op))
        return false;
    const bool aStack = a.rs1 == REG_SP || a.rs1 == REG_FP;
    const bool bStack = b.rs1 == REG_SP || b.rs1 == REG_FP;
    if ((!aStack && a.aliasRegion == ALIAS_UNKNOWN) ||
        (!bStack && b.aliasRegion == ALIAS_UNKNOWN))
        return true;
    if (aStack != bStack)
        return false;
    if (aStack) {
        if (a.rs1 != b.rs1)
            return true;
        int64_t aEnd = a.imm + memAccessSize(a.op);
        int64_t bEnd = b.imm + memAccessSize(b.op);
        return a.imm < bEnd && b.imm < aEnd;
    }
    return a.aliasRegion == b.aliasRegion;
}

/**
 * Use-def chains via a worklist reaching-definitions solve. For every
 * real instruction, useDefsOfInst holds the union over its source
 * registers of the definition sites whose value may reach it.
 */
struct UseDefs
{
    struct Site
    {
        int bb, idx;
        Reg reg;
    };

    std::vector<Site> sites;
    std::vector<std::vector<int>> siteAt;       //!< [bb][i] -> id or -1
    std::vector<std::vector<int>> useDefsOfInst; //!< [gi] -> site ids

    UseDefs(const Function &fn, const InstIndex &gidx)
    {
        const int n = static_cast<int>(fn.numBlocks());
        siteAt.resize(n);
        std::vector<std::vector<int>> sitesOfReg(NUM_ARCH_REGS);
        for (int b = 0; b < n; ++b) {
            const auto &bb = fn.block(b);
            siteAt[b].assign(bb.insts.size(), -1);
            for (size_t i = 0; i < bb.insts.size(); ++i) {
                if (!bb.insts[i].hasDest())
                    continue;
                siteAt[b][i] = static_cast<int>(sites.size());
                sitesOfReg[bb.insts[i].rd].push_back(
                    static_cast<int>(sites.size()));
                sites.push_back(
                    {b, static_cast<int>(i), bb.insts[i].rd});
            }
        }
        const size_t nsites = sites.size();

        // Block summaries: generated sites and killed registers.
        std::vector<BitVec> gen(n, BitVec(nsites));
        std::vector<BitVec> notKilled(n, BitVec(nsites));
        for (int b = 0; b < n; ++b) {
            const auto &bb = fn.block(b);
            notKilled[b].setAll();
            std::vector<int> last(NUM_ARCH_REGS, -1);
            for (size_t i = 0; i < bb.insts.size(); ++i) {
                int s = siteAt[b][i];
                if (s >= 0)
                    last[sites[s].reg] = s;
            }
            for (int r = 0; r < NUM_ARCH_REGS; ++r) {
                if (last[r] < 0)
                    continue;
                gen[b].set(static_cast<size_t>(last[r]));
                // a redefined register kills every other site of it
                for (int s : sitesOfReg[r])
                    if (s != last[r])
                        notKilled[b].clear(static_cast<size_t>(s));
            }
        }

        // Worklist fixpoint on block OUT sets.
        std::vector<BitVec> in(n, BitVec(nsites));
        std::vector<BitVec> out(n, BitVec(nsites));
        std::vector<bool> queued(n, true);
        std::vector<int> work;
        for (int b = n - 1; b >= 0; --b)
            work.push_back(b);
        while (!work.empty()) {
            int b = work.back();
            work.pop_back();
            queued[b] = false;
            BitVec newIn(nsites);
            for (int p : fn.block(b).preds)
                newIn.orWith(out[p]);
            in[b] = newIn;
            BitVec newOut = newIn;
            newOut.andWith(notKilled[b]);
            newOut.orWith(gen[b]);
            if (newOut != out[b]) {
                out[b] = newOut;
                for (int s : fn.block(b).succs)
                    if (!queued[s]) {
                        queued[s] = true;
                        work.push_back(s);
                    }
            }
        }

        // Per-instruction chains: walk each block applying kills.
        useDefsOfInst.resize(gidx.total);
        for (int b = 0; b < n; ++b) {
            const auto &bb = fn.block(b);
            BitVec live = in[b];
            for (size_t i = 0; i < bb.insts.size(); ++i) {
                const Instruction &inst = bb.insts[i];
                Reg srcs[3];
                int nsrc = sourceRegs(inst, srcs);
                auto &chain = useDefsOfInst[static_cast<size_t>(
                    gidx.at(b, static_cast<int>(i)))];
                for (int k = 0; k < nsrc; ++k)
                    for (int s : sitesOfReg[srcs[k]])
                        if (live.test(static_cast<size_t>(s)))
                            chain.push_back(s);
                int def = siteAt[b][i];
                if (def >= 0) {
                    for (int s : sitesOfReg[sites[def].reg])
                        live.clear(static_cast<size_t>(s));
                    live.set(static_cast<size_t>(def));
                }
            }
        }
    }
};

/**
 * Execution-order positions. This intentionally mirrors the pass's
 * RPO construction step for step (same DFS shape, same tie-breaks):
 * the cross-instance freshness test below must agree with the pass on
 * which of two instructions runs first, or order-sensitivity findings
 * would be noise.
 */
std::vector<int64_t>
computeOrderPos(const Function &fn, const InstIndex &gidx)
{
    const int nblk = static_cast<int>(fn.numBlocks());
    std::vector<int64_t> orderPos(gidx.total, 0);
    std::vector<int> state(nblk, 0);
    std::vector<int> postorder;
    std::vector<std::pair<int, size_t>> stack;
    stack.emplace_back(fn.entry(), 0);
    state[fn.entry()] = 1;
    while (!stack.empty()) {
        auto &[node, si] = stack.back();
        const auto &succs = fn.block(node).succs;
        if (si < succs.size()) {
            int next = succs[si++];
            if (state[next] == 0) {
                state[next] = 1;
                stack.emplace_back(next, 0);
            }
        } else {
            postorder.push_back(node);
            stack.pop_back();
        }
    }
    std::vector<int> rpoRank(nblk, nblk);
    int rank = 0;
    for (auto it = postorder.rbegin(); it != postorder.rend(); ++it)
        rpoRank[*it] = rank++;
    std::vector<int> blocksByRank(nblk);
    for (int bb = 0; bb < nblk; ++bb)
        blocksByRank[bb] = bb;
    std::sort(blocksByRank.begin(), blocksByRank.end(),
              [&](int a, int c) { return rpoRank[a] < rpoRank[c]; });
    int64_t pos = 0;
    for (int bb : blocksByRank)
        for (size_t i = 0; i < fn.block(bb).insts.size(); ++i)
            orderPos[static_cast<size_t>(
                gidx.at(bb, static_cast<int>(i)))] = pos++;
    return orderPos;
}

/**
 * Blocks reachable from the branch's successors without crossing the
 * reconvergence point (everything reachable when reconv is -1).
 */
std::vector<int>
controlRegion(const Function &fn, int branchBb, int reconv)
{
    std::vector<bool> seen(fn.numBlocks(), false);
    std::vector<int> out, queue = fn.block(branchBb).succs;
    size_t head = 0;
    while (head < queue.size()) {
        int b = queue[head++];
        if (b == reconv || seen[b])
            continue;
        seen[b] = true;
        out.push_back(b);
        for (int s : fn.block(b).succs)
            queue.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

DomSets::DomSets(const Function &fn, bool post)
{
    n_ = static_cast<int>(fn.numBlocks());
    const int root = n_; // virtual entry (dom) / virtual exit (pdom)
    const int total = n_ + 1;
    words_ = (static_cast<size_t>(total) + 63) / 64;
    idom_.assign(static_cast<size_t>(n_), -1);
    sets_.assign(static_cast<size_t>(total) * words_, 0);
    if (n_ == 0)
        return;

    auto row = [this](int b) {
        return sets_.data() + static_cast<size_t>(b) * words_;
    };
    auto rowTest = [&](int b, int i) {
        return (row(b)[static_cast<size_t>(i) >> 6] >>
                (static_cast<size_t>(i) & 63)) &
               1;
    };
    // Walk-graph edges: the CFG rooted at a virtual entry for
    // dominators; the reversed CFG rooted at a virtual exit (fed by
    // every HALT block) for post-dominators.
    std::vector<std::vector<int>> walkPreds(total), walkSuccs(total);
    if (!post) {
        walkPreds[static_cast<size_t>(fn.entry())].push_back(root);
        walkSuccs[static_cast<size_t>(root)].push_back(fn.entry());
        for (int b = 0; b < n_; ++b)
            for (int s : fn.block(b).succs) {
                walkPreds[static_cast<size_t>(s)].push_back(b);
                walkSuccs[static_cast<size_t>(b)].push_back(s);
            }
    } else {
        for (int b = 0; b < n_; ++b) {
            const Instruction *term = fn.block(b).terminator();
            if (term && term->op == Opcode::HALT) {
                walkPreds[static_cast<size_t>(b)].push_back(root);
                walkSuccs[static_cast<size_t>(root)].push_back(b);
            }
            for (int s : fn.block(b).succs) {
                walkPreds[static_cast<size_t>(b)].push_back(s);
                walkSuccs[static_cast<size_t>(s)].push_back(b);
            }
        }
    }

    // Reachability from the virtual root in the walk graph.
    std::vector<bool> reach(static_cast<size_t>(total), false);
    {
        std::vector<int> stack{root};
        reach[static_cast<size_t>(root)] = true;
        while (!stack.empty()) {
            int b = stack.back();
            stack.pop_back();
            for (int s : walkSuccs[static_cast<size_t>(b)])
                if (!reach[static_cast<size_t>(s)]) {
                    reach[static_cast<size_t>(s)] = true;
                    stack.push_back(s);
                }
        }
    }

    // Maximal-fixpoint set dataflow: dom(b) = {b} ∪ ⋂ dom(pred).
    // Unreachable nodes keep the full set during iteration (identity
    // for the intersection) and are reset to {self} afterwards, which
    // matches DominatorTree's "only self" answer for them.
    const uint64_t tailMask =
        total % 64 ? (uint64_t{1} << (total % 64)) - 1 : ~uint64_t{0};
    for (int b = 0; b < total; ++b) {
        std::fill(row(b), row(b) + words_, ~uint64_t{0});
        row(b)[words_ - 1] &= tailMask;
    }
    std::fill(row(root), row(root) + words_, 0);
    row(root)[static_cast<size_t>(root) >> 6] |=
        uint64_t{1} << (root & 63);

    std::vector<uint64_t> tmp(words_);
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = 0; b < n_; ++b) {
            if (!reach[static_cast<size_t>(b)])
                continue;
            std::fill(tmp.begin(), tmp.end(), ~uint64_t{0});
            tmp[words_ - 1] &= tailMask;
            for (int p : walkPreds[static_cast<size_t>(b)])
                for (size_t w = 0; w < words_; ++w)
                    tmp[w] &= row(p)[w];
            tmp[static_cast<size_t>(b) >> 6] |= uint64_t{1} << (b & 63);
            if (!std::equal(tmp.begin(), tmp.end(), row(b))) {
                std::copy(tmp.begin(), tmp.end(), row(b));
                changed = true;
            }
        }
    }
    for (int b = 0; b < n_; ++b) {
        if (reach[static_cast<size_t>(b)])
            continue;
        std::fill(row(b), row(b) + words_, 0);
        row(b)[static_cast<size_t>(b) >> 6] |= uint64_t{1} << (b & 63);
    }

    // Immediate (post)dominator: dominator sets are chains under
    // inclusion, so the closest strict dominator is the one with the
    // largest set. The virtual root is excluded (-1, like the tree).
    for (int b = 0; b < n_; ++b) {
        if (!reach[static_cast<size_t>(b)])
            continue;
        int best = -1;
        size_t bestCard = 0;
        for (int d = 0; d < n_; ++d) {
            if (d == b || !rowTest(b, d))
                continue;
            size_t card = 0;
            for (size_t w = 0; w < words_; ++w) {
                uint64_t v = row(d)[w];
                while (v) {
                    v &= v - 1;
                    ++card;
                }
            }
            if (best < 0 || card > bestCard) {
                best = d;
                bestCard = card;
            }
        }
        idom_[static_cast<size_t>(b)] = best;
    }
}

bool
DomSets::dominates(int a, int b) const
{
    if (a < 0 || b < 0 || a >= n_ || b >= n_)
        return false;
    const uint64_t *r = sets_.data() + static_cast<size_t>(b) * words_;
    return (r[static_cast<size_t>(a) >> 6] >>
            (static_cast<size_t>(a) & 63)) &
           1;
}

namespace {

/**
 * The checker's decoded view of a program's annotation plus every
 * dependence fact it proves. checkAnnotations() evaluates its rules
 * over exactly this structure.
 *
 * Instruction coordinates: `gi` is the dense layout-order global
 * index (`gi(bb, idx)`); branches and regions carry both (bb, idx)
 * and gi forms.
 */
struct DependenceModel
{
    /** One decoded setDependency region. */
    struct Region
    {
        int bb = -1, setIdx = -1;
        int id = 0, num = 0;
        bool sens = false, strict = false;
        std::vector<int> covered; //!< global indices of covered insts
    };

    /** One decoded branch site. */
    struct Branch
    {
        int bb = -1, instIdx = -1, gi = -1;
        int markId = 0; //!< armed compiler ID (0 = unmarked)
    };

    /** False: CFG too broken to decode (verifyProgram reports why). */
    bool valid = false;
    bool anySetup = false;

    std::vector<size_t> giBase; //!< per-block global-index base

    std::vector<Region> regions;
    std::vector<Branch> branches;
    std::vector<int> regionOfGi; //!< covering region per gi, -1 = none
    std::vector<int> branchAtGi; //!< branch index at gi, -1 = none

    std::vector<bool> reachBlk; //!< block reachable from entry
    DomSets dom, pdom;

    /** Per gi: branches it (control- or data-)depends on, proven. */
    std::vector<std::vector<int>> depSet;
    /** Per gi: branches whose values may arrive cross-instance. */
    std::vector<std::vector<int>> crossDeps;

    /** Per region: branches its BIT entry may resolve to. */
    std::vector<std::vector<int>> resMembers;
    /** Per branch: chain successors (branches armed with its ID). */
    std::vector<std::vector<int>> chainSucc;
    /** Per branch: covered by a strict region (waits on everything). */
    std::vector<bool> universal;
    /** cover[b][d]: waiting on b provably waits on d too. */
    std::vector<std::vector<bool>> cover;
    /** Branch reachable through some region's guard chain. */
    std::vector<bool> usedBranch;
    /** Per compiler ID: some reachable setBranchId arms it. */
    std::vector<bool> armedAnywhere;

    int gi(int bb, int idx) const
    {
        return static_cast<int>(giBase[static_cast<size_t>(bb)] +
                                static_cast<size_t>(idx));
    }

    /** Guard-chain must-coverage across ID-reuse ambiguity. */
    bool chainCovers(int branch, int dep) const
    {
        return universal[static_cast<size_t>(branch)] ||
               cover[static_cast<size_t>(branch)]
                    [static_cast<size_t>(dep)];
    }
};

using Region = DependenceModel::Region;
using Branch = DependenceModel::Branch;

/**
 * Rule evaluation over the prebuilt dependence model: guard-chain
 * coverage, freshness, and order sensitivity. All dataflow (BIT
 * interpretation, chain cover) lives in buildDependenceModel().
 */
bool
runChecks(const Function &fn, Diagnostics &diag, int errBefore,
          const DependenceModel &model)
{
    const int nblocks = static_cast<int>(fn.numBlocks());
    const int nbranches = static_cast<int>(model.branches.size());
    const DomSets &dom = model.dom;
    const DomSets &pdom = model.pdom;
    const std::vector<bool> &reachBlk = model.reachBlk;
    const std::vector<Region> &regions = model.regions;
    const std::vector<Branch> &branches = model.branches;
    const std::vector<int> &regionOfGi = model.regionOfGi;
    const std::vector<int> &branchAtGi = model.branchAtGi;
    const std::vector<std::vector<int>> &depSet = model.depSet;
    const std::vector<std::vector<int>> &resMembers = model.resMembers;
    const std::vector<std::vector<int>> &chainSucc = model.chainSucc;
    const std::vector<bool> &used = model.usedBranch;
    const std::vector<bool> &armedAnywhere = model.armedAnywhere;

    auto brName = [&](int b) {
        const Branch &br = branches[static_cast<size_t>(b)];
        std::string s = fn.block(br.bb).label.empty()
                            ? "bb" + std::to_string(br.bb)
                            : fn.block(br.bb).label;
        return "branch " + std::to_string(b) + " (" + s + ":" +
               std::to_string(br.instIdx) + ")";
    };
    auto freshAt = [&](int b, int blk) {
        int db = branches[static_cast<size_t>(b)].bb;
        return dom.dominates(db, blk) || pdom.dominates(db, blk);
    };

    // Chain-edge freshness: an edge b -> c is only meaningful if c's
    // BIT entry is fresh where b sits.
    std::set<std::pair<int, int>> edgeSeen;
    for (int b = 0; b < nbranches; ++b) {
        if (!used[static_cast<size_t>(b)])
            continue;
        const Branch &br = branches[static_cast<size_t>(b)];
        for (int c : chainSucc[static_cast<size_t>(b)]) {
            if (c == b || freshAt(c, br.bb) ||
                !edgeSeen.insert({b, c}).second)
                continue;
            std::string msg = "guard chain edge from " + brName(b) +
                              " to " + brName(c) +
                              " is not fresh (target neither "
                              "dominates nor post-dominates the "
                              "source)";
            if (chainSucc[static_cast<size_t>(b)].size() == 1)
                diag.error("stale-chain-edge",
                           locAt(fn, br.bb, br.instIdx), msg);
            else
                diag.warning("stale-chain-edge",
                             locAt(fn, br.bb, br.instIdx), msg);
        }
    }

    //
    // Per-instruction coverage, freshness, and liveness of the guard.
    //
    std::set<int> ambigSeen;
    std::set<std::pair<int, int>> staleSeen, depSeen, partialSeen;
    for (int blk = 0; blk < nblocks; ++blk) {
        if (!reachBlk[static_cast<size_t>(blk)])
            continue;
        const auto &bb = fn.block(blk);
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            if (isSetup(inst.op))
                continue;
            int gi = model.gi(blk, static_cast<int>(i));
            int r = regionOfGi[static_cast<size_t>(gi)];
            int self = branchAtGi[static_cast<size_t>(gi)];
            std::vector<int> deps;
            for (int d : depSet[static_cast<size_t>(gi)])
                if (d != self)
                    deps.push_back(d);
            SourceLoc loc = locAt(fn, blk, static_cast<int>(i));

            if (inst.op == Opcode::FENCE) {
                // FENCEs must steer through the in-order path; the
                // hardware ignores a region over them, so flag it.
                if (r >= 0)
                    diag.warning("fence-in-region", loc,
                                 "FENCE covered by a dependency "
                                 "region");
                continue;
            }
            if (r < 0) {
                if (!deps.empty())
                    diag.error(
                        "uncovered-dependence", loc,
                        std::string(opcodeName(inst.op)) +
                            " depends on " + brName(deps.front()) +
                            (deps.size() > 1
                                 ? " and " +
                                       std::to_string(deps.size() - 1) +
                                       " more"
                                 : std::string()) +
                            " but carries no dependency region");
                continue;
            }
            const Region &reg = regions[static_cast<size_t>(r)];
            if (reg.strict)
                continue; // full in-order commit covers everything
            if (reg.id == 0) {
                if (!deps.empty())
                    diag.error("dead-guard", loc,
                               "region with ID 0 tracks no branch but "
                               "the instruction depends on " +
                                   brName(deps.front()));
                continue;
            }
            const std::vector<int> &members =
                resMembers[static_cast<size_t>(r)];
            if (members.empty()) {
                if (deps.empty())
                    continue;
                if (!armedAnywhere[static_cast<size_t>(reg.id)])
                    diag.error("dead-guard", loc,
                               "region guards on ID " +
                                   std::to_string(reg.id) +
                                   " but no setBranchId ever arms it");
                else if (depSeen.insert({r, -1}).second)
                    diag.warning("dead-guard", loc,
                                 "no arming of ID " +
                                     std::to_string(reg.id) +
                                     " reaches this region (guard can "
                                     "only be unset here)");
                continue;
            }
            if (members.size() > 1 && ambigSeen.insert(r).second)
                diag.warning("ambiguous-branch-id",
                             locAt(fn, reg.bb, reg.setIdx),
                             "ID " + std::to_string(reg.id) +
                                 " reuse: " +
                                 std::to_string(members.size()) +
                                 " static branches can be the guard "
                                 "here");
            for (int m : members) {
                if (freshAt(m, blk) || !staleSeen.insert({r, m}).second)
                    continue;
                std::string msg =
                    "possible guard " + brName(m) +
                    " is not fresh here (neither dominates nor "
                    "post-dominates the region's block)";
                if (members.size() == 1)
                    diag.error("stale-guard", loc, msg);
                else
                    diag.warning("stale-guard", loc, msg);
            }
            for (int d : deps) {
                int covering = 0;
                for (int m : members)
                    if (model.chainCovers(m, d))
                        ++covering;
                if (covering == 0) {
                    if (depSeen.insert({r, d}).second)
                        diag.error(
                            "uncovered-dependence", loc,
                            "dependence on " + brName(d) +
                                " is not reachable through the guard "
                                "chain of ID " +
                                std::to_string(reg.id));
                } else if (covering <
                               static_cast<int>(members.size()) &&
                           partialSeen.insert({r, d}).second) {
                    diag.warning(
                        "ambiguous-branch-id", loc,
                        "dependence on " + brName(d) +
                            " covered by only " +
                            std::to_string(covering) + " of " +
                            std::to_string(members.size()) +
                            " possible guards (ID reuse)");
                }
            }
        }
    }

    //
    // Order sensitivity: a region whose instructions can consume
    // values from a different dynamic instance of a guard's region
    // must carry the sensitive flag.
    //
    for (size_t r = 0; r < regions.size(); ++r) {
        const Region &reg = regions[r];
        if (!reachBlk[static_cast<size_t>(reg.bb)] || reg.strict ||
            reg.id <= 0 || reg.sens)
            continue;
        for (int gi : reg.covered) {
            if (model.crossDeps[static_cast<size_t>(gi)].empty())
                continue;
            diag.error("missing-order-sensitive",
                       locAt(fn, reg.bb, reg.setIdx),
                       "region covers instructions with "
                       "cross-instance data flow but is not "
                       "flagged order sensitive");
            break;
        }
    }

    // Markings nothing can ever resolve to.
    for (int b = 0; b < nbranches; ++b) {
        const Branch &br = branches[static_cast<size_t>(b)];
        if (br.markId > 0 && reachBlk[static_cast<size_t>(br.bb)] &&
            !used[static_cast<size_t>(b)])
            diag.warning("unused-branch-marking",
                         locAt(fn, br.bb, br.instIdx),
                         brName(b) + " is marked with ID " +
                             std::to_string(br.markId) +
                             " but no region can resolve to it");
    }

    return diag.errorCount() == errBefore;
}

/**
 * Decode the annotation of `prog` and recompute the checker's full
 * dependence model (dominance, control/data dependence, BIT
 * resolution, guard-chain cover). Pure analysis: reports nothing.
 */
DependenceModel
buildDependenceModel(const Program &prog)
{
    DependenceModel m;
    const Function &fn = prog.function();
    const int nblocks = static_cast<int>(fn.numBlocks());
    if (nblocks == 0 || fn.entry() < 0 || fn.entry() >= nblocks)
        return m; // structurally broken: stays !valid

    // Bail out early on out-of-range cached edges — every dataflow
    // below indexes blocks through them. verifyProgram flags the cause.
    for (const auto &bb : fn.blocks())
        for (int s : bb.succs)
            if (s < 0 || s >= nblocks)
                return m;
    m.valid = true;

    InstIndex gidx(fn);
    m.giBase = gidx.base;

    //
    // Decode the annotation: dependency regions and branch markings,
    // exactly as the hardware front end would (setup instructions do
    // not consume region slots; a setBranchId arms the next real
    // instruction).
    //
    std::vector<Region> &regions = m.regions;
    std::vector<Branch> &branches = m.branches;
    m.regionOfGi.assign(gidx.total, -1);
    m.branchAtGi.assign(gidx.total, -1);
    std::vector<int> &regionOfGi = m.regionOfGi;
    std::vector<int> &branchAtGi = m.branchAtGi;
    bool anySetup = false;

    for (int blk = 0; blk < nblocks; ++blk) {
        const auto &bb = fn.block(blk);
        int pendingId = 0;
        int curRegion = -1, left = 0;
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            if (inst.op == Opcode::SET_BRANCH_ID) {
                anySetup = true;
                int id = setBranchIdId(inst);
                if (id >= 1 && id < NUM_BRANCH_IDS)
                    pendingId = id;
                continue;
            }
            if (inst.op == Opcode::SET_DEPENDENCY) {
                anySetup = true;
                int num = setDependencyNum(inst);
                int id = setDependencyId(inst);
                if (num > 0 && id >= 0 && id < NUM_BRANCH_IDS) {
                    Region r;
                    r.bb = blk;
                    r.setIdx = static_cast<int>(i);
                    r.id = id;
                    r.num = num;
                    r.sens = setDependencySensitive(inst);
                    r.strict = setDependencyStrict(inst);
                    curRegion = static_cast<int>(regions.size());
                    left = num;
                    regions.push_back(std::move(r));
                }
                continue;
            }
            // A real instruction.
            int gi = gidx.at(blk, static_cast<int>(i));
            if (isBranchSiteOp(inst)) {
                branchAtGi[static_cast<size_t>(gi)] =
                    static_cast<int>(branches.size());
                Branch br;
                br.bb = blk;
                br.instIdx = static_cast<int>(i);
                br.gi = gi;
                br.markId = pendingId;
                branches.push_back(br);
            }
            pendingId = 0;
            if (left > 0) {
                regionOfGi[static_cast<size_t>(gi)] = curRegion;
                regions[static_cast<size_t>(curRegion)].covered
                    .push_back(gi);
                --left;
            }
        }
    }

    m.anySetup = anySetup;

    //
    // Reachability, dominance, execution order.
    //
    m.reachBlk.assign(static_cast<size_t>(nblocks), false);
    std::vector<bool> &reachBlk = m.reachBlk;
    {
        std::vector<int> stack{fn.entry()};
        reachBlk[static_cast<size_t>(fn.entry())] = true;
        while (!stack.empty()) {
            int b = stack.back();
            stack.pop_back();
            for (int s : fn.block(b).succs)
                if (!reachBlk[static_cast<size_t>(s)]) {
                    reachBlk[static_cast<size_t>(s)] = true;
                    stack.push_back(s);
                }
        }
    }
    if (!anySetup)
        return m; // nothing to model beyond the decode

    const int nbranches = static_cast<int>(branches.size());
    m.dom = DomSets(fn, false);
    m.pdom = DomSets(fn, true);
    const DomSets &dom = m.dom;
    const DomSets &pdom = m.pdom;
    std::vector<int64_t> orderPos = computeOrderPos(fn, gidx);

    //
    // Recompute the dependences the annotation must cover: control
    // regions per branch (from this file's own post-dominators) and
    // data taint over this file's own use-def chains and alias model.
    //
    UseDefs ud(fn, gidx);
    m.depSet.assign(gidx.total, {});
    std::vector<std::vector<int>> &depSet = m.depSet;
    std::vector<BitVec> crossTaint(
        gidx.total,
        BitVec(static_cast<size_t>(std::max(nbranches, 1))));
    std::vector<BitVec> ctrlSet(
        static_cast<size_t>(nbranches),
        BitVec(static_cast<size_t>(nblocks)));

    for (int b = 0; b < nbranches; ++b) {
        const Branch &br = branches[static_cast<size_t>(b)];
        std::vector<int> ctrl =
            controlRegion(fn, br.bb, pdom.idom(br.bb));
        for (int blk : ctrl)
            ctrlSet[static_cast<size_t>(b)].set(
                static_cast<size_t>(blk));
        for (int blk : ctrl) {
            const auto &bbRef = fn.block(blk);
            for (size_t i = 0; i < bbRef.insts.size(); ++i)
                depSet[static_cast<size_t>(
                           gidx.at(blk, static_cast<int>(i)))]
                    .push_back(b);
        }

        // Taint closure seeded by the region's defs and stores.
        BitVec taintedInst(gidx.total);
        BitVec taintedSite(ud.sites.size() + 1);
        std::vector<std::pair<int, int>> taintedStores;
        for (int blk : ctrl) {
            const auto &bbRef = fn.block(blk);
            for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                taintedInst.set(static_cast<size_t>(
                    gidx.at(blk, static_cast<int>(i))));
                int s = ud.siteAt[blk][i];
                if (s >= 0)
                    taintedSite.set(static_cast<size_t>(s));
                if (isStore(bbRef.insts[i].op))
                    taintedStores.emplace_back(blk,
                                               static_cast<int>(i));
            }
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (int blk = 0; blk < nblocks; ++blk) {
                const auto &bbRef = fn.block(blk);
                for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                    int gi = gidx.at(blk, static_cast<int>(i));
                    if (taintedInst.test(static_cast<size_t>(gi)))
                        continue;
                    const Instruction &inst = bbRef.insts[i];
                    bool tainted = false;
                    for (int s :
                         ud.useDefsOfInst[static_cast<size_t>(gi)]) {
                        if (taintedSite.test(static_cast<size_t>(s))) {
                            tainted = true;
                            break;
                        }
                    }
                    if (!tainted && isLoad(inst.op)) {
                        for (auto &[sb, si] : taintedStores) {
                            if (memMayOverlap(
                                    inst, fn.block(sb).insts[si])) {
                                tainted = true;
                                break;
                            }
                        }
                    }
                    if (tainted) {
                        taintedInst.set(static_cast<size_t>(gi));
                        int s = ud.siteAt[blk][i];
                        if (s >= 0)
                            taintedSite.set(static_cast<size_t>(s));
                        if (isStore(inst.op))
                            taintedStores.emplace_back(
                                blk, static_cast<int>(i));
                        changed = true;
                    }
                }
            }
        }
        for (int blk = 0; blk < nblocks; ++blk) {
            if (ctrlSet[static_cast<size_t>(b)].test(
                    static_cast<size_t>(blk)))
                continue;
            const auto &bbRef = fn.block(blk);
            for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                int gi = gidx.at(blk, static_cast<int>(i));
                if (taintedInst.test(static_cast<size_t>(gi)))
                    depSet[static_cast<size_t>(gi)].push_back(b);
            }
        }

        // Cross-instance taint: same freshness rule as the pass (def
        // precedes the use in execution order, its block dominates the
        // use's, and the def itself is same-instance), evaluated with
        // this file's chains and dominators.
        BitVec crossSite(ud.sites.size() + 1);
        BitVec crossStoreGi(gidx.total);
        bool growing = true;
        while (growing) {
            growing = false;
            for (int blk = 0; blk < nblocks; ++blk) {
                const auto &bbRef = fn.block(blk);
                for (size_t i = 0; i < bbRef.insts.size(); ++i) {
                    const Instruction &inst = bbRef.insts[i];
                    int gi = gidx.at(blk, static_cast<int>(i));
                    bool hit = crossTaint[static_cast<size_t>(gi)]
                                   .test(static_cast<size_t>(b));
                    if (!hit) {
                        for (int s : ud.useDefsOfInst[
                                 static_cast<size_t>(gi)]) {
                            if (!taintedSite.test(
                                    static_cast<size_t>(s)))
                                continue;
                            const auto &ds =
                                ud.sites[static_cast<size_t>(s)];
                            bool fresh =
                                orderPos[static_cast<size_t>(
                                    gidx.at(ds.bb, ds.idx))] <
                                    orderPos[static_cast<size_t>(
                                        gi)] &&
                                dom.dominates(ds.bb, blk) &&
                                !crossSite.test(
                                    static_cast<size_t>(s));
                            if (!fresh) {
                                hit = true;
                                break;
                            }
                        }
                        if (!hit && isLoad(inst.op)) {
                            for (auto &[sb, si] : taintedStores) {
                                if (!memMayOverlap(
                                        inst,
                                        fn.block(sb).insts[si]))
                                    continue;
                                int sgi = gidx.at(sb, si);
                                bool fresh =
                                    orderPos[static_cast<size_t>(
                                        sgi)] <
                                        orderPos[static_cast<size_t>(
                                            gi)] &&
                                    dom.dominates(sb, blk) &&
                                    !crossStoreGi.test(
                                        static_cast<size_t>(sgi));
                                if (!fresh) {
                                    hit = true;
                                    break;
                                }
                            }
                        }
                    }
                    if (hit) {
                        if (!crossTaint[static_cast<size_t>(gi)].test(
                                static_cast<size_t>(b))) {
                            crossTaint[static_cast<size_t>(gi)].set(
                                static_cast<size_t>(b));
                            growing = true;
                        }
                        int s = ud.siteAt[blk][i];
                        if (s >= 0 &&
                            !crossSite.test(static_cast<size_t>(s))) {
                            crossSite.set(static_cast<size_t>(s));
                            growing = true;
                        }
                        if (isStore(inst.op) &&
                            !crossStoreGi.test(
                                static_cast<size_t>(gi))) {
                            crossStoreGi.set(static_cast<size_t>(gi));
                            growing = true;
                        }
                    }
                }
            }
        }
    }

    m.crossDeps.assign(gidx.total, {});
    for (size_t gi = 0; gi < gidx.total; ++gi)
        for (int b = 0; b < nbranches; ++b)
            if (crossTaint[gi].test(static_cast<size_t>(b)))
                m.crossDeps[gi].push_back(b);

    //
    // Abstract BIT: forward may-dataflow mapping each compiler ID to
    // the static branches whose arming can be the latest one. Armings
    // happen at marked branch sites (terminators after the verifier's
    // placement rules, but evaluated positionally for robustness).
    // Bit nbranches stands for UNSET: "no arming executed yet on this
    // path", which legitimately commits without waiting (the first
    // iteration of a loop whose guard post-dominates the region).
    //
    const size_t UNSET = static_cast<size_t>(nbranches);
    auto applyArmings = [&](int blk, int uptoIdx,
                            std::vector<BitVec> &st) {
        const auto &bb = fn.block(blk);
        int stop = uptoIdx < 0 ? static_cast<int>(bb.insts.size())
                               : uptoIdx;
        for (int i = 0; i < stop; ++i) {
            int b = branchAtGi[static_cast<size_t>(gidx.at(blk, i))];
            if (b < 0)
                continue;
            int id = branches[static_cast<size_t>(b)].markId;
            if (id <= 0 || id >= NUM_BRANCH_IDS)
                continue;
            st[static_cast<size_t>(id)].clearAll();
            st[static_cast<size_t>(id)].set(static_cast<size_t>(b));
        }
    };

    std::vector<std::vector<BitVec>> bitIn(
        static_cast<size_t>(nblocks),
        std::vector<BitVec>(
            NUM_BRANCH_IDS,
            BitVec(static_cast<size_t>(nbranches) + 1)));
    for (int id = 1; id < NUM_BRANCH_IDS; ++id)
        bitIn[static_cast<size_t>(fn.entry())][static_cast<size_t>(id)]
            .set(UNSET);
    bool flow = true;
    while (flow) {
        flow = false;
        for (int blk = 0; blk < nblocks; ++blk) {
            if (!reachBlk[static_cast<size_t>(blk)])
                continue;
            std::vector<BitVec> out = bitIn[static_cast<size_t>(blk)];
            applyArmings(blk, -1, out);
            for (int s : fn.block(blk).succs)
                for (int id = 1; id < NUM_BRANCH_IDS; ++id)
                    flow = bitIn[static_cast<size_t>(s)]
                               [static_cast<size_t>(id)]
                                   .orWith(
                                       out[static_cast<size_t>(id)]) ||
                           flow;
        }
    }

    // Per-region resolution set: the BIT state the region's
    // setDependency observes.
    const int nregions = static_cast<int>(regions.size());
    m.resMembers.assign(static_cast<size_t>(nregions), {});
    for (int r = 0; r < nregions; ++r) {
        const Region &reg = regions[static_cast<size_t>(r)];
        if (!reachBlk[static_cast<size_t>(reg.bb)] || reg.id <= 0)
            continue;
        std::vector<BitVec> st = bitIn[static_cast<size_t>(reg.bb)];
        applyArmings(reg.bb, reg.setIdx, st);
        for (int b = 0; b < nbranches; ++b)
            if (st[static_cast<size_t>(reg.id)].test(
                    static_cast<size_t>(b)))
                m.resMembers[static_cast<size_t>(r)].push_back(b);
    }

    m.armedAnywhere.assign(NUM_BRANCH_IDS, false);
    for (const Branch &br : branches)
        if (br.markId > 0 && br.markId < NUM_BRANCH_IDS &&
            reachBlk[static_cast<size_t>(br.bb)])
            m.armedAnywhere[static_cast<size_t>(br.markId)] = true;

    //
    // Guard chains: a branch's chain successors are the branches armed
    // with its covering region's ID — the *marking intent*, not the
    // BIT resolution. The two differ when an arming cannot flow to the
    // region (the guard is then permanently unset there), which the
    // commit conditions tolerate: a dependence that never executed has
    // nothing to wait for, so an always-unset link is vacuously
    // covered, not broken. A strict region covers everything (full
    // in-order commit); ID 0 or no region ends the chain. cover[] is
    // the least fixpoint of
    //   cover(b) = {b} ∪ ⋂_{c ∈ succ(b)} cover(c)
    // — must-coverage across ID-reuse ambiguity, cycle-tolerant like
    // the dynamic chains (every edge steps to an older instance).
    //
    std::vector<std::vector<int>> armedWith(NUM_BRANCH_IDS);
    for (int b = 0; b < nbranches; ++b) {
        const Branch &br = branches[static_cast<size_t>(b)];
        if (br.markId > 0 && br.markId < NUM_BRANCH_IDS &&
            reachBlk[static_cast<size_t>(br.bb)])
            armedWith[static_cast<size_t>(br.markId)].push_back(b);
    }
    m.chainSucc.assign(static_cast<size_t>(nbranches), {});
    m.universal.assign(static_cast<size_t>(nbranches), false);
    for (int b = 0; b < nbranches; ++b) {
        int r = regionOfGi[static_cast<size_t>(
            branches[static_cast<size_t>(b)].gi)];
        if (r < 0)
            continue;
        const Region &reg = regions[static_cast<size_t>(r)];
        if (reg.strict)
            m.universal[static_cast<size_t>(b)] = true;
        else if (reg.id > 0)
            m.chainSucc[static_cast<size_t>(b)] =
                armedWith[static_cast<size_t>(reg.id)];
    }
    std::vector<BitVec> cover(
        static_cast<size_t>(nbranches),
        BitVec(static_cast<size_t>(std::max(nbranches, 1))));
    for (int b = 0; b < nbranches; ++b) {
        if (m.universal[static_cast<size_t>(b)])
            cover[static_cast<size_t>(b)].setAll();
        else
            cover[static_cast<size_t>(b)].set(static_cast<size_t>(b));
    }
    bool growing = true;
    while (growing) {
        growing = false;
        for (int b = 0; b < nbranches; ++b) {
            if (m.universal[static_cast<size_t>(b)] ||
                m.chainSucc[static_cast<size_t>(b)].empty())
                continue;
            BitVec next(static_cast<size_t>(std::max(nbranches, 1)));
            next.setAll();
            for (int c : m.chainSucc[static_cast<size_t>(b)])
                next.andWith(cover[static_cast<size_t>(c)]);
            next.set(static_cast<size_t>(b));
            growing =
                cover[static_cast<size_t>(b)].orWith(next) || growing;
        }
    }
    m.cover.assign(static_cast<size_t>(nbranches),
                   std::vector<bool>(static_cast<size_t>(nbranches),
                                     false));
    for (int b = 0; b < nbranches; ++b)
        for (int d = 0; d < nbranches; ++d)
            m.cover[static_cast<size_t>(b)][static_cast<size_t>(d)] =
                cover[static_cast<size_t>(b)].test(
                    static_cast<size_t>(d));

    // Branches actually reachable through some region's chain.
    m.usedBranch.assign(static_cast<size_t>(nbranches), false);
    {
        std::vector<int> stack;
        for (int r = 0; r < nregions; ++r)
            for (int b : m.resMembers[static_cast<size_t>(r)])
                if (!m.usedBranch[static_cast<size_t>(b)]) {
                    m.usedBranch[static_cast<size_t>(b)] = true;
                    stack.push_back(b);
                }
        while (!stack.empty()) {
            int b = stack.back();
            stack.pop_back();
            for (int c : m.chainSucc[static_cast<size_t>(b)])
                if (!m.usedBranch[static_cast<size_t>(c)]) {
                    m.usedBranch[static_cast<size_t>(c)] = true;
                    stack.push_back(c);
                }
        }
    }

    return m;
}

} // namespace

bool
checkAnnotations(const Program &prog, Diagnostics &diag,
                 const CheckOptions &opts)
{
    const Function &fn = prog.function();
    const int errBefore = diag.errorCount();
    DependenceModel model = buildDependenceModel(prog);
    if (!model.valid)
        return true; // structurally broken: verifyProgram reports it

    if (!model.anySetup) {
        if (opts.requireAnnotations)
            diag.error("not-annotated", locAt(fn, -1),
                       "no setup instructions found but annotations "
                       "were required");
        else
            diag.note("not-annotated", locAt(fn, -1),
                      "no setup instructions: dependence checks "
                      "skipped");
        return diag.errorCount() == errBefore;
    }

    return runChecks(fn, diag, errBefore, model);
}

} // namespace noreba
