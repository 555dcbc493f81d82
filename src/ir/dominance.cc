#include "ir/dominance.h"

#include <algorithm>

#include "common/logging.h"

namespace noreba {

namespace {

/**
 * Build the (possibly reversed) adjacency used by the CHK iteration,
 * with a virtual root appended as node n. For Dominators the root's
 * successors are {entry}; for PostDominators the graph is the reverse
 * CFG and the root's successors are the HALT blocks.
 */
struct WorkGraph
{
    int n = 0;                                //!< real block count
    int root = 0;                             //!< virtual node id == n
    std::vector<std::vector<int>> succs;      //!< edges of walk graph
    std::vector<std::vector<int>> preds;      //!< reverse of succs
};

WorkGraph
buildGraph(const Function &fn, DominatorTree::Kind kind)
{
    WorkGraph g;
    g.n = static_cast<int>(fn.numBlocks());
    g.root = g.n;
    g.succs.assign(g.n + 1, {});
    g.preds.assign(g.n + 1, {});

    auto addEdge = [&g](int from, int to) {
        g.succs[from].push_back(to);
        g.preds[to].push_back(from);
    };

    if (kind == DominatorTree::Kind::Dominators) {
        addEdge(g.root, fn.entry());
        for (const auto &bb : fn.blocks())
            for (int s : bb.succs)
                addEdge(bb.id, s);
    } else {
        // Reverse CFG rooted at a virtual exit fed by all HALT blocks.
        for (const auto &bb : fn.blocks()) {
            const Instruction *term = bb.terminator();
            if (term && term->op == Opcode::HALT)
                addEdge(g.root, bb.id);
            for (int s : bb.succs)
                addEdge(s, bb.id);
        }
    }
    return g;
}

} // namespace

DominatorTree::DominatorTree(const Function &fn, Kind kind)
    : kind_(kind)
{
    WorkGraph g = buildGraph(fn, kind);
    const int total = g.n + 1;

    // Reverse postorder over the walk graph from the virtual root.
    std::vector<int> postorder;
    postorder.reserve(total);
    std::vector<int> state(total, 0); // 0 unvisited, 1 on stack, 2 done
    std::vector<std::pair<int, size_t>> stack;
    stack.emplace_back(g.root, 0);
    state[g.root] = 1;
    while (!stack.empty()) {
        auto &[node, idx] = stack.back();
        if (idx < g.succs[node].size()) {
            int next = g.succs[node][idx++];
            if (state[next] == 0) {
                state[next] = 1;
                stack.emplace_back(next, 0);
            }
        } else {
            postorder.push_back(node);
            state[node] = 2;
            stack.pop_back();
        }
    }

    std::vector<int> rpoIndex(total, -1);
    for (size_t i = 0; i < postorder.size(); ++i)
        rpoIndex[postorder[i]] = static_cast<int>(postorder.size() - 1 - i);

    std::vector<int> rpo(postorder.rbegin(), postorder.rend());

    // Cooper-Harvey-Kennedy iteration.
    std::vector<int> idom(total, -1);
    idom[g.root] = g.root;

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = idom[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = idom[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int node : rpo) {
            if (node == g.root)
                continue;
            int newIdom = -1;
            for (int p : g.preds[node]) {
                if (idom[p] == -1)
                    continue;
                newIdom = (newIdom == -1) ? p : intersect(p, newIdom);
            }
            if (newIdom != -1 && idom[node] != newIdom) {
                idom[node] = newIdom;
                changed = true;
            }
        }
    }

    // Strip the virtual root: blocks whose idom is the root get -1.
    idom_.assign(g.n, -1);
    for (int b = 0; b < g.n; ++b) {
        if (idom[b] != -1 && idom[b] != g.root)
            idom_[b] = idom[b];
    }

    // The virtual root is first in the walk; blocks count from 0.
    rpoRank_.assign(g.n, -1);
    for (int b = 0; b < g.n; ++b)
        if (rpoIndex[b] > 0)
            rpoRank_[b] = rpoIndex[b] - 1;
}

bool
DominatorTree::dominates(int a, int b) const
{
    if (a == b)
        return true;
    int cur = b;
    while (cur != -1) {
        cur = idom_[cur];
        if (cur == a)
            return true;
    }
    return false;
}

int
reconvergenceBlock(const DominatorTree &pdom, int bb)
{
    panic_if(pdom.kind() != DominatorTree::Kind::PostDominators,
             "reconvergenceBlock requires a post-dominator tree");
    return pdom.idom(bb);
}

} // namespace noreba
