#include "ir/dominators.hh"

#include <algorithm>

namespace aregion::ir {

namespace {

/** Graph view used for both dominance directions. */
struct Graph
{
    int numNodes;
    int root;
    std::vector<std::vector<int>> succs;
    std::vector<std::vector<int>> preds;
};

Graph
makeGraph(const Function &func, bool post)
{
    Graph g;
    const int n = func.numBlocks();
    if (!post) {
        g.numNodes = n;
        g.root = func.entry;
        g.succs.resize(static_cast<size_t>(n));
        g.preds.resize(static_cast<size_t>(n));
        for (int b = 0; b < n; ++b) {
            for (int s : func.block(b).succs) {
                g.succs[static_cast<size_t>(b)].push_back(s);
                g.preds[static_cast<size_t>(s)].push_back(b);
            }
        }
    } else {
        // Reversed graph with a virtual exit node (id n) joined from
        // every Ret block.
        g.numNodes = n + 1;
        g.root = n;
        g.succs.resize(static_cast<size_t>(n) + 1);
        g.preds.resize(static_cast<size_t>(n) + 1);
        auto edge = [&](int from, int to) {
            g.succs[static_cast<size_t>(from)].push_back(to);
            g.preds[static_cast<size_t>(to)].push_back(from);
        };
        for (int b = 0; b < n; ++b) {
            for (int s : func.block(b).succs)
                edge(s, b);
            if (func.block(b).terminator().op == Op::Ret)
                edge(n, b);
        }
    }
    return g;
}

} // namespace

DominatorTree::DominatorTree(const Function &func, bool post)
{
    const Graph g = makeGraph(func, post);
    rootBlock = g.root;

    // Reverse post-order from the root.
    std::vector<int> rpo;
    {
        std::vector<uint8_t> seen(static_cast<size_t>(g.numNodes), 0);
        std::vector<std::pair<int, size_t>> stack;
        stack.emplace_back(g.root, 0);
        seen[static_cast<size_t>(g.root)] = 1;
        while (!stack.empty()) {
            auto &[b, next] = stack.back();
            const auto &succs = g.succs[static_cast<size_t>(b)];
            if (next < succs.size()) {
                const int s = succs[next++];
                if (!seen[static_cast<size_t>(s)]) {
                    seen[static_cast<size_t>(s)] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                rpo.push_back(b);
                stack.pop_back();
            }
        }
        std::reverse(rpo.begin(), rpo.end());
    }

    std::vector<int> rpoNum(static_cast<size_t>(g.numNodes), -1);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpoNum[static_cast<size_t>(rpo[i])] = static_cast<int>(i);

    // Cooper-Harvey-Kennedy fixed point.
    idomVec.assign(static_cast<size_t>(g.numNodes), -1);
    idomVec[static_cast<size_t>(g.root)] = g.root;
    auto meet = [&](int a, int b) {
        while (a != b) {
            while (rpoNum[static_cast<size_t>(a)] >
                   rpoNum[static_cast<size_t>(b)]) {
                a = idomVec[static_cast<size_t>(a)];
            }
            while (rpoNum[static_cast<size_t>(b)] >
                   rpoNum[static_cast<size_t>(a)]) {
                b = idomVec[static_cast<size_t>(b)];
            }
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : rpo) {
            if (b == g.root)
                continue;
            int best = -1;
            for (int p : g.preds[static_cast<size_t>(b)]) {
                if (rpoNum[static_cast<size_t>(p)] == -1 ||
                    idomVec[static_cast<size_t>(p)] == -1) {
                    continue;   // unreachable or unprocessed
                }
                best = best == -1 ? p : meet(best, p);
            }
            if (best != -1 && idomVec[static_cast<size_t>(b)] != best) {
                idomVec[static_cast<size_t>(b)] = best;
                changed = true;
            }
        }
    }

    // Children lists and preorder numbering for O(1) dominance tests.
    kids.assign(static_cast<size_t>(g.numNodes), {});
    for (int b = 0; b < g.numNodes; ++b) {
        if (b != g.root && idomVec[static_cast<size_t>(b)] != -1)
            kids[static_cast<size_t>(idomVec[
                static_cast<size_t>(b)])].push_back(b);
    }
    idomVec[static_cast<size_t>(g.root)] = -1;

    dfnum.assign(static_cast<size_t>(g.numNodes), -1);
    dfLast.assign(static_cast<size_t>(g.numNodes), -1);
    int counter = 0;
    std::vector<std::pair<int, size_t>> stack;
    stack.emplace_back(g.root, 0);
    dfnum[static_cast<size_t>(g.root)] = counter++;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const auto &children_of = kids[static_cast<size_t>(b)];
        if (next < children_of.size()) {
            const int c = children_of[next++];
            dfnum[static_cast<size_t>(c)] = counter++;
            stack.emplace_back(c, 0);
        } else {
            dfLast[static_cast<size_t>(b)] = counter - 1;
            stack.pop_back();
        }
    }
}

int
DominatorTree::idom(int block) const
{
    return idomVec[static_cast<size_t>(block)];
}

bool
DominatorTree::dominates(int a, int b) const
{
    const int da = dfnum[static_cast<size_t>(a)];
    const int db = dfnum[static_cast<size_t>(b)];
    if (da == -1 || db == -1)
        return false;
    return da <= db && db <= dfLast[static_cast<size_t>(a)];
}

const std::vector<int> &
DominatorTree::children(int block) const
{
    return kids[static_cast<size_t>(block)];
}

bool
DominatorTree::reachable(int block) const
{
    return dfnum[static_cast<size_t>(block)] != -1;
}

std::vector<std::vector<int>>
dominanceFrontiers(const Function &func, const DominatorTree &doms)
{
    const int n = func.numBlocks();
    std::vector<std::vector<int>> df(static_cast<size_t>(n));
    const auto preds = func.computePreds();
    for (int b = 0; b < n; ++b) {
        if (!doms.reachable(b))
            continue;
        // The entry block has an implicit extra predecessor (the
        // function-entry edge), so any real edge into it makes it a
        // join; nothing strictly dominates the entry.
        int reachablePreds = b == func.entry ? 1 : 0;
        for (int p : preds[static_cast<size_t>(b)]) {
            if (doms.reachable(p))
                ++reachablePreds;
        }
        if (reachablePreds < 2)
            continue;
        for (int p : preds[static_cast<size_t>(b)]) {
            if (!doms.reachable(p))
                continue;
            int runner = p;
            while (runner != doms.idom(b)) {
                df[static_cast<size_t>(runner)].push_back(b);
                runner = doms.idom(runner);
            }
        }
    }
    for (auto &set : df) {
        std::sort(set.begin(), set.end());
        set.erase(std::unique(set.begin(), set.end()), set.end());
    }
    return df;
}

} // namespace aregion::ir
