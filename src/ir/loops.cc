#include "ir/loops.hh"

#include <algorithm>
#include <map>
#include <set>

namespace aregion::ir {

bool
Loop::contains(int block) const
{
    return std::find(blocks.begin(), blocks.end(), block) != blocks.end();
}

LoopForest::LoopForest(const Function &func, const DominatorTree &doms)
{
    const auto preds = func.computePreds();

    // Collect back edges grouped by header.
    std::map<int, std::vector<int>> latches;    // header -> sources
    for (int b = 0; b < func.numBlocks(); ++b) {
        if (!doms.reachable(b))
            continue;
        for (int s : func.block(b).succs) {
            if (doms.dominates(s, b))
                latches[s].push_back(b);
        }
    }

    // Natural loop body: header plus reverse-reachable set from the
    // latches that does not pass through the header.
    for (const auto &[header, sources] : latches) {
        Loop loop;
        loop.header = header;
        loop.backEdgeSources = sources;
        std::set<int> body{header};
        std::vector<int> work(sources.begin(), sources.end());
        while (!work.empty()) {
            const int b = work.back();
            work.pop_back();
            if (body.count(b))
                continue;
            body.insert(b);
            for (int p : preds[static_cast<size_t>(b)]) {
                if (doms.reachable(p))
                    work.push_back(p);
            }
        }
        loop.blocks.assign(body.begin(), body.end());
        loopVec.push_back(std::move(loop));
    }

    // Nesting: parent = smallest strictly-larger loop containing the
    // header. Sorting by body size makes parent search simple.
    std::vector<int> order(loopVec.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return loopVec[static_cast<size_t>(a)].blocks.size() <
               loopVec[static_cast<size_t>(b)].blocks.size();
    });
    for (size_t i = 0; i < order.size(); ++i) {
        Loop &inner = loopVec[static_cast<size_t>(order[i])];
        for (size_t j = i + 1; j < order.size(); ++j) {
            Loop &outer = loopVec[static_cast<size_t>(order[j])];
            if (outer.header != inner.header &&
                outer.contains(inner.header)) {
                inner.parent = order[j];
                break;
            }
        }
    }
    for (Loop &loop : loopVec) {
        int depth = 1;
        for (int p = loop.parent; p != -1;
             p = loopVec[static_cast<size_t>(p)].parent) {
            ++depth;
        }
        loop.depth = depth;
    }

    // Innermost loop per block: deepest loop containing it.
    innermost.assign(static_cast<size_t>(func.numBlocks()), -1);
    for (size_t li = 0; li < loopVec.size(); ++li) {
        for (int b : loopVec[li].blocks) {
            const int cur = innermost[static_cast<size_t>(b)];
            if (cur == -1 ||
                loopVec[static_cast<size_t>(cur)].depth <
                loopVec[li].depth) {
                innermost[static_cast<size_t>(b)] =
                    static_cast<int>(li);
            }
        }
    }
}

std::vector<int>
LoopForest::postOrder() const
{
    // Innermost-first: sort by depth descending (stable on index).
    std::vector<int> order(loopVec.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return loopVec[static_cast<size_t>(a)].depth >
               loopVec[static_cast<size_t>(b)].depth;
    });
    return order;
}

int
LoopForest::loopOf(int block) const
{
    return innermost[static_cast<size_t>(block)];
}

std::vector<int>
LoopForest::entryPreds(const Function &func, int loop) const
{
    std::vector<int> result;
    const Loop &l = loopVec[static_cast<size_t>(loop)];
    const auto preds = func.computePreds();
    for (int p : preds[static_cast<size_t>(l.header)]) {
        if (!l.contains(p))
            result.push_back(p);
    }
    return result;
}

} // namespace aregion::ir
