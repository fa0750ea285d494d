#include "ir/cfg.hh"

namespace aregion::ir {

std::map<int, int>
cloneBlocks(Function &func, const std::set<int> &block_set)
{
    std::map<int, int> clone_of;
    for (int b : block_set) {
        Block &fresh = func.newBlock();
        clone_of[b] = fresh.id;
    }
    for (int b : block_set) {
        const Block &src = func.block(b);
        Block &dst = func.block(clone_of.at(b));
        dst.instrs = src.instrs;
        dst.execCount = src.execCount;
        dst.succCount = src.succCount;
        dst.regionId = src.regionId;
        dst.succs = src.succs;
        for (int &s : dst.succs) {
            auto it = clone_of.find(s);
            if (it != clone_of.end())
                s = it->second;
        }
    }
    return clone_of;
}

void
redirectEdges(Function &func, int from, int old_to, int new_to)
{
    Block &blk = func.block(from);
    for (int &s : blk.succs) {
        if (s == old_to)
            s = new_to;
    }
}

} // namespace aregion::ir
