#include "core/region_formation.hh"

#include <algorithm>
#include <map>

#include "ir/cfg.hh"
#include "ir/dominators.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::core {

using namespace aregion::ir;

namespace {

/** Branch bias below which a path is cold (paper: 1%). */
constexpr double kColdBias = 0.01;

/** Blocks below maxBlockExecCount/100 never seed traces. */
constexpr double kHotBlockCutoff = 0.01;

bool
endsWithRet(const Block &blk)
{
    return !blk.instrs.empty() && blk.terminator().op == Op::Ret;
}

/**
 * Irrevocable operations cannot execute speculatively: output cannot
 * be un-printed, threads cannot be un-spawned, and sampling markers
 * must fire exactly once. Blocks containing them terminate regions
 * exactly like non-inlined calls do.
 */
bool
hasIrrevocable(const Block &blk)
{
    for (const Instr &in : blk.instrs) {
        if (in.op == Op::Print || in.op == Op::Spawn ||
            in.op == Op::Marker) {
            return true;
        }
    }
    return false;
}

/** Blocks a region must stop at (not replicate). */
bool
isRegionStopper(const Block &blk)
{
    return blk.endsWithCall() || endsWithRet(blk) || hasIrrevocable(blk);
}

/** Edge count from `blk` to successor index si (0 if unknown). */
double
edgeCount(const Block &blk, size_t si)
{
    return si < blk.succCount.size() ? blk.succCount[si] : 0.0;
}

/** Is the si-th out-edge of blk cold (paper: bias < 1%)? */
bool
isColdEdge(const Block &blk, size_t si)
{
    if (blk.execCount <= 0)
        return true;
    return edgeCount(blk, si) < kColdBias * blk.execCount;
}

} // namespace

double
loopWeight(const Function &func, const Loop &loop)
{
    double weight = 0;
    for (int b : loop.blocks) {
        const Block &blk = func.block(b);
        weight += blk.execCount *
                  static_cast<double>(blk.instrs.size());
    }
    return weight;
}

double
regionSizeCost(double r, double target)
{
    r = std::max(r, 1.0);
    const double d = target - r;
    return d * d / (target * r);
}

std::vector<int>
traceDominantPath(const Function &func, int seed,
                  const std::set<int> &boundaries)
{
    std::vector<int> path{seed};
    std::set<int> on_path{seed};

    // Forward along dominant out-edges.
    int cur = seed;
    while (!boundaries.count(cur)) {
        const Block &blk = func.block(cur);
        if (blk.succs.empty())
            break;
        size_t best = 0;
        for (size_t si = 1; si < blk.succs.size(); ++si) {
            if (edgeCount(blk, si) > edgeCount(blk, best))
                best = si;
        }
        const int next = blk.succs[best];
        if (on_path.count(next))
            break;
        path.push_back(next);
        on_path.insert(next);
        cur = next;
    }

    // Backward along dominant in-edges.
    const auto preds = func.computePreds();
    cur = seed;
    while (!boundaries.count(cur)) {
        int best = -1;
        double best_count = -1;
        for (int p : preds[static_cast<size_t>(cur)]) {
            const Block &pb = func.block(p);
            for (size_t si = 0; si < pb.succs.size(); ++si) {
                if (pb.succs[si] == cur &&
                    edgeCount(pb, si) > best_count) {
                    best_count = edgeCount(pb, si);
                    best = p;
                }
            }
        }
        if (best == -1 || on_path.count(best))
            break;
        path.insert(path.begin(), best);
        on_path.insert(best);
        cur = best;
    }
    return path;
}

std::vector<int>
selectAcyclicBoundaries(const Function &func,
                        const std::vector<int> &path,
                        const LoopForest &forest, double target)
{
    if (path.empty())
        return {};

    // Candidate positions: path start/end, loop pre-headers (the
    // position right before entering a loop) and loop exits (the
    // position right after leaving one).
    std::vector<size_t> candidates{0};
    for (size_t i = 1; i < path.size(); ++i) {
        const int prev_loop = forest.loopOf(path[i - 1]);
        const int cur_loop = forest.loopOf(path[i]);
        if (prev_loop != cur_loop)
            candidates.push_back(i);
    }
    candidates.push_back(path.size() - 1);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    // Cumulative instruction counts along the path.
    std::vector<double> cum(path.size() + 1, 0);
    for (size_t i = 0; i < path.size(); ++i) {
        cum[i + 1] = cum[i] + static_cast<double>(
            func.block(path[i]).instrs.size());
    }

    // DP over candidates: pick a subset (keeping both endpoints)
    // minimizing the sum of Equation 1 region costs.
    const size_t nc = candidates.size();
    std::vector<double> best(nc, 1e300);
    std::vector<int> from(nc, -1);
    best[0] = 0;
    for (size_t j = 1; j < nc; ++j) {
        for (size_t i = 0; i < j; ++i) {
            const double size =
                cum[candidates[j]] - cum[candidates[i]];
            const double cost =
                best[i] + regionSizeCost(size, target);
            if (cost < best[j]) {
                best[j] = cost;
                from[j] = static_cast<int>(i);
            }
        }
    }

    std::vector<int> chosen;
    for (int j = static_cast<int>(nc) - 1; j != -1; j = from[
             static_cast<size_t>(j)]) {
        chosen.push_back(path[candidates[static_cast<size_t>(j)]]);
        if (j == 0)
            break;
    }
    std::reverse(chosen.begin(), chosen.end());
    return chosen;
}

std::set<int>
selectBoundaries(const Function &func, const RegionConfig &config)
{
    std::set<int> selected;
    const DominatorTree doms(func);
    const LoopForest forest(func, doms);
    const auto rpo = func.reversePostOrder();

    // Loops, innermost first (Algorithm 1, first phase).
    for (int li : forest.postOrder()) {
        const Loop &loop = forest.loops()[static_cast<size_t>(li)];
        const Block &header = func.block(loop.header);

        bool warm_call = false;
        for (int b : loop.blocks) {
            const Block &blk = func.block(b);
            if (blk.endsWithCall() && header.execCount > 0 &&
                blk.execCount >=
                    kColdBias * header.execCount) {
                warm_call = true;
            }
        }

        double entry_flow = 0;
        for (int p : forest.entryPreds(func, li)) {
            const Block &pb = func.block(p);
            for (size_t si = 0; si < pb.succs.size(); ++si) {
                if (pb.succs[si] == loop.header)
                    entry_flow += edgeCount(pb, si);
            }
        }
        const double path_length =
            loopWeight(func, loop) / std::max(entry_flow, 1.0);

        if (path_length >= config.loopPathThreshold || warm_call)
            selected.insert(loop.header);
    }

    // Acyclic paths (Algorithm 1, last phase).
    std::set<int> trace_boundaries{func.entry};
    for (int b : rpo) {
        const Block &blk = func.block(b);
        if (isRegionStopper(blk))
            trace_boundaries.insert(b);
        if (blk.endsWithCall()) {
            for (int s : blk.succs)
                trace_boundaries.insert(s);     // call continuation
        }
    }

    double max_exec = 0;
    for (int b : rpo)
        max_exec = std::max(max_exec, func.block(b).execCount);

    std::vector<int> by_heat(rpo.begin(), rpo.end());
    std::stable_sort(by_heat.begin(), by_heat.end(),
                     [&](int a, int b) {
                         return func.block(a).execCount >
                                func.block(b).execCount;
                     });

    // A block inside a loop whose header is already a boundary is
    // covered by that loop's per-iteration region; neither seed a
    // trace from it nor select it as an acyclic boundary (doing so
    // would fragment the loop region at its body blocks).
    auto covered_by_loop_region = [&](int b) {
        for (int li = forest.loopOf(b); li != -1;
             li = forest.loops()[static_cast<size_t>(li)].parent) {
            if (selected.count(
                    forest.loops()[static_cast<size_t>(li)].header)) {
                return true;
            }
        }
        return false;
    };

    std::set<int> visited;
    for (int b : by_heat) {
        const Block &blk = func.block(b);
        if (visited.count(b) ||
            blk.execCount < max_exec * kHotBlockCutoff ||
            blk.execCount <= 0 || covered_by_loop_region(b)) {
            continue;
        }
        std::set<int> stops = selected;
        stops.insert(trace_boundaries.begin(), trace_boundaries.end());
        const auto path = traceDominantPath(func, b, stops);
        auto chosen = selectAcyclicBoundaries(
            func, path, forest, config.targetSize);
        chosen.erase(std::remove_if(chosen.begin(), chosen.end(),
                                    covered_by_loop_region),
                     chosen.end());
        selected.insert(chosen.begin(), chosen.end());
        visited.insert(path.begin(), path.end());
    }

    // Boundaries must be usable region entries.
    for (auto it = selected.begin(); it != selected.end();) {
        const Block &blk = func.block(*it);
        if (isRegionStopper(blk) ||
            blk.execCount <= 0 || blk.regionId >= 0) {
            it = selected.erase(it);
        } else {
            ++it;
        }
    }
    return selected;
}

namespace {

/** One region's construction (steps 3-4 for one boundary). */
class RegionBuilder
{
  public:
    RegionBuilder(Function &func_, const RegionConfig &config_,
                  RegionStats &stats_, const std::set<int> &selected_,
                  int &next_abort_id_)
        : func(func_), config(config_), stats(stats_),
          selected(selected_), nextAbortId(next_abort_id_)
    {
    }

    /** Build a region entered at boundary h; false if not viable. */
    bool
    build(int h)
    {
        hotSet = discoverHotSet(h);
        int hot_instrs = 0;
        for (int b : hotSet)
            hot_instrs += static_cast<int>(
                func.block(b).instrs.size());
        if (hot_instrs < config.minRegionInstrs)
            return false;

        // Partial unrolling: if the hot set loops back to h and is
        // small, fuse several iterations into one region.
        int factor = 1;
        bool loops_back = false;
        double back_flow = 0;
        for (int b : hotSet) {
            const Block &blk = func.block(b);
            for (size_t si = 0; si < blk.succs.size(); ++si) {
                if (blk.succs[si] == h) {
                    loops_back = true;
                    back_flow += edgeCount(blk, si);
                }
            }
        }
        const double h_exec = func.block(h).execCount;
        if (loops_back && h_exec > 0 && back_flow / h_exec >= 0.5) {
            factor = static_cast<int>(config.targetSize /
                                      std::max(hot_instrs, 1));
            factor = std::clamp(factor, 1, config.maxUnrollFactor);
        }
        if (factor > 1)
            stats.unrolledRegions++;

        const int rid = static_cast<int>(func.regions.size());
        RegionInfo region;
        region.id = rid;

        // Begin block: [AtomicBegin, Jump] with the exception edge
        // to the original (non-speculative) boundary block.
        Block &begin = func.newBlock();
        begin.regionId = rid;
        begin.execCount = h_exec;

        // Replicate the hot set `factor` times.
        std::vector<std::map<int, int>> copies;
        for (int k = 0; k < factor; ++k) {
            copies.push_back(cloneBlocks(func, hotSet));
            for (const auto &[o, c] : copies.back()) {
                func.block(c).regionId = rid;
                func.block(c).execCount =
                    func.block(o).execCount / factor;
                for (double &cnt : func.block(c).succCount)
                    cnt /= factor;
                stats.blocksReplicated++;
            }
        }

        Instr abegin;
        abegin.op = Op::AtomicBegin;
        abegin.aux = rid;
        Instr bjump;
        bjump.op = Op::Jump;
        begin.instrs = {std::move(abegin), std::move(bjump)};
        begin.succs = {copies[0].at(h), h};
        begin.succCount = {h_exec, 0};

        // Wire region-leaving edges per copy.
        for (int k = 0; k < factor; ++k)
            wireCopy(copies[static_cast<size_t>(k)],
                     k + 1 < factor
                         ? copies[static_cast<size_t>(k) + 1].at(h)
                         : -1,
                     h, rid, region);

        region.entryBlock = begin.id;
        region.altBlock = h;
        func.regions.push_back(std::move(region));
        beginOf[h] = begin.id;
        stats.regionsFormed++;
        return true;
    }

    const std::map<int, int> &begins() const { return beginOf; }

  private:
    /** DFS along warm edges; stops at boundaries, calls, rets. */
    std::set<int>
    discoverHotSet(int h) const
    {
        std::set<int> hot{h};
        std::vector<int> work{h};
        while (!work.empty() &&
               static_cast<int>(hot.size()) < config.maxRegionBlocks) {
            const int b = work.back();
            work.pop_back();
            const Block &blk = func.block(b);
            for (size_t si = 0; si < blk.succs.size(); ++si) {
                const int s = blk.succs[si];
                if (hot.count(s) || isColdEdge(blk, si))
                    continue;
                const Block &sb = func.block(s);
                if (selected.count(s) || isRegionStopper(sb) ||
                    sb.regionId >= 0) {
                    continue;   // region exit target, not replicated
                }
                hot.insert(s);
                work.push_back(s);
            }
        }
        return hot;
    }

    /** Create an [AtomicEnd, Jump target] exit block. */
    int
    makeExit(int rid, int target, double flow, const Instr &origin)
    {
        Block &exit = func.newBlock();
        exit.regionId = rid;
        exit.execCount = flow;
        Instr aend;
        aend.op = Op::AtomicEnd;
        aend.aux = rid;
        aend.bcPc = origin.bcPc;
        aend.bcMethod = origin.bcMethod;
        Instr jump;
        jump.op = Op::Jump;
        jump.bcPc = origin.bcPc;
        jump.bcMethod = origin.bcMethod;
        exit.instrs = {std::move(aend), std::move(jump)};
        exit.succs = {target};
        exit.succCount = {flow};
        stats.regionExits++;
        return exit.id;
    }

    /**
     * Rewrite one copy's external edges: cold exits become Asserts,
     * warm exits become AtomicEnd blocks, and back edges to h chain
     * into the next unrolled copy (or exit to re-enter the region).
     */
    void
    wireCopy(const std::map<int, int> &copy, int next_copy_entry,
             int h, int rid, RegionInfo &region)
    {
        // cloneBlocks redirected intra-set edges to the clones, so a
        // back edge to the boundary h now points at this copy's own
        // cloned entry. Rewire it: into the next unrolled copy, or —
        // for the last copy — through an AtomicEnd exit back to the
        // original h (whose in-edges later move to aregion_begin,
        // re-entering the region for the next iteration).
        const int my_entry = copy.at(h);
        for (const auto &[orig_id, clone_id] : copy) {
            Block &clone = func.block(clone_id);
            const Block &orig = func.block(orig_id);

            for (size_t si = 0; si < clone.succs.size(); ++si) {
                if (clone.succs[si] != my_entry)
                    continue;
                if (next_copy_entry != -1) {
                    clone.succs[si] = next_copy_entry;
                } else {
                    const double flow =
                        si < clone.succCount.size()
                            ? clone.succCount[si] : 0.0;
                    clone.succs[si] = makeExit(
                        rid, h, flow, clone.terminator());
                }
            }

            // Classify remaining external successors.
            const bool is_branch =
                clone.terminator().op == Op::Branch;
            std::vector<bool> external(clone.succs.size());
            std::vector<bool> cold(clone.succs.size());
            bool any_cold_external = false;
            for (size_t si = 0; si < clone.succs.size(); ++si) {
                const int s = clone.succs[si];
                // Clones (all unrolled copies) carry this region id.
                external[si] = func.block(s).regionId != rid;
                if (!external[si])
                    continue;
                bool c = isColdEdge(orig, si);
                const Instr &term = orig.terminator();
                if (c && config.warmOverrides.count(
                        {term.bcMethod, term.bcPc})) {
                    c = false;  // adaptive feedback says warm
                }
                cold[si] = c;
                any_cold_external |= c;
            }

            if (is_branch && any_cold_external &&
                !(cold[0] && cold[1])) {
                // Exactly one cold arm: convert the branch into an
                // Assert plus a jump down the surviving arm.
                const size_t ci = cold[0] ? 0 : 1;
                const size_t wi = 1 - ci;
                const Instr branch = clone.terminator();
                clone.instrs.pop_back();
                Instr assert_in;
                assert_in.op = Op::Assert;
                assert_in.srcs = {branch.s0()};
                // Branch takes succs[0] when cond != 0; abort when
                // control would go down the cold arm.
                assert_in.imm = ci == 0 ? 0 : 1;
                assert_in.aux = nextAbortId;
                assert_in.bcPc = branch.bcPc;
                assert_in.bcMethod = branch.bcMethod;
                region.abortOrigins[nextAbortId] =
                    {branch.bcMethod, branch.bcPc};
                ++nextAbortId;
                stats.assertsCreated++;
                clone.instrs.push_back(std::move(assert_in));
                Instr jump;
                jump.op = Op::Jump;
                jump.bcPc = branch.bcPc;
                jump.bcMethod = branch.bcMethod;
                clone.instrs.push_back(std::move(jump));
                const int kept = clone.succs[wi];
                const double kept_flow =
                    wi < clone.succCount.size()
                        ? clone.succCount[wi] : clone.execCount;
                clone.succs = {kept};
                clone.succCount = {kept_flow};
                // The kept arm may still be external and warm.
                if (func.block(kept).regionId != rid) {
                    clone.succs[0] = makeExit(
                        rid, kept, kept_flow, clone.terminator());
                }
                continue;
            }

            // Otherwise every external edge exits the region.
            for (size_t si = 0; si < clone.succs.size(); ++si) {
                if (!external[si])
                    continue;
                const double flow =
                    si < clone.succCount.size()
                        ? clone.succCount[si] : 0.0;
                clone.succs[si] = makeExit(rid, clone.succs[si],
                                           flow,
                                           clone.terminator());
            }
        }
    }

    Function &func;
    const RegionConfig &config;
    RegionStats &stats;
    const std::set<int> &selected;
    int &nextAbortId;
    std::set<int> hotSet;
    std::map<int, int> beginOf;
};

} // namespace

namespace {

/** Mirror the formation decisions process-wide (`region.*` keys;
 *  see docs/TELEMETRY.md). Runs on every call — zero-valued keys
 *  still register, so every snapshot carries the full schema. */
void
publishFormationStats(const RegionStats &stats)
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    reg.add(keys::kRegionFormed,
            static_cast<uint64_t>(stats.regionsFormed));
    reg.add(keys::kRegionAssertsConverted,
            static_cast<uint64_t>(stats.assertsCreated));
    reg.add(keys::kRegionBlocksReplicated,
            static_cast<uint64_t>(stats.blocksReplicated));
    reg.add(keys::kRegionExits,
            static_cast<uint64_t>(stats.regionExits));
    reg.add(keys::kRegionUnrolled,
            static_cast<uint64_t>(stats.unrolledRegions));
}

} // namespace

RegionConfig
RegionConfig::smallBodies()
{
    RegionConfig rc;
    rc.loopPathThreshold = 20;
    rc.targetSize = 40;
    rc.minRegionInstrs = 4;
    return rc;
}

RegionStats
formRegions(Function &func, const RegionConfig &config)
{
    RegionStats stats;
    const std::set<int> selected = selectBoundaries(func, config);
    if (selected.empty()) {
        publishFormationStats(stats);
        return stats;
    }

    int next_abort_id = 0;
    RegionBuilder builder(func, config, stats, selected,
                          next_abort_id);

    // Hottest boundaries first.
    std::vector<int> order(selected.begin(), selected.end());
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return func.block(a).execCount > func.block(b).execCount;
    });
    for (int h : order)
        builder.build(h);

    // Step: move every edge into a boundary original onto its
    // region's begin block (the paper's "all edges into the block
    // that the region entry was copied from are moved to the
    // aregion_begin"). Begin blocks keep their exception edges.
    const auto &begins = builder.begins();
    if (!begins.empty()) {
        // A region at the function entry is entered via the entry
        // pointer rather than an edge.
        auto eit = begins.find(func.entry);
        if (eit != begins.end())
            func.entry = eit->second;
        for (int b = 0; b < func.numBlocks(); ++b) {
            Block &blk = func.block(b);
            if (!blk.instrs.empty() &&
                blk.instrs.front().op == Op::AtomicBegin) {
                continue;
            }
            for (int &s : blk.succs) {
                auto it = begins.find(s);
                if (it != begins.end() && it->second != b)
                    s = it->second;
            }
        }
    }

    func.compact();
    publishFormationStats(stats);
    return stats;
}

} // namespace aregion::core
