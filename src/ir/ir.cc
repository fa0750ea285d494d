#include "ir/ir.hh"

#include <algorithm>
#include <sstream>

namespace aregion::ir {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Const: return "const";
      case Op::Mov: return "mov";
      case Op::Phi: return "phi";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::Div: return "div";
      case Op::Rem: return "rem";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Shl: return "shl";
      case Op::Shr: return "shr";
      case Op::CmpEq: return "cmpeq";
      case Op::CmpNe: return "cmpne";
      case Op::CmpLt: return "cmplt";
      case Op::CmpLe: return "cmple";
      case Op::CmpGt: return "cmpgt";
      case Op::CmpGe: return "cmpge";
      case Op::LoadField: return "loadfield";
      case Op::StoreField: return "storefield";
      case Op::LoadElem: return "loadelem";
      case Op::StoreElem: return "storeelem";
      case Op::LoadRaw: return "loadraw";
      case Op::StoreRaw: return "storeraw";
      case Op::LoadSubtype: return "loadsubtype";
      case Op::NullCheck: return "nullcheck";
      case Op::BoundsCheck: return "boundscheck";
      case Op::DivCheck: return "divcheck";
      case Op::SizeCheck: return "sizecheck";
      case Op::TypeCheck: return "typecheck";
      case Op::NewObject: return "newobject";
      case Op::NewArray: return "newarray";
      case Op::CallStatic: return "callstatic";
      case Op::CallVirtual: return "callvirtual";
      case Op::MonitorEnter: return "monitorenter";
      case Op::MonitorExit: return "monitorexit";
      case Op::Safepoint: return "safepoint";
      case Op::Print: return "print";
      case Op::Marker: return "marker";
      case Op::Spawn: return "spawn";
      case Op::AtomicBegin: return "aregion_begin";
      case Op::AtomicEnd: return "aregion_end";
      case Op::Assert: return "assert";
      case Op::Branch: return "branch";
      case Op::Jump: return "jump";
      case Op::Ret: return "ret";
    }
    return "<bad>";
}

bool
isTerminator(Op op)
{
    return op == Op::Branch || op == Op::Jump || op == Op::Ret;
}

bool
isPureValue(Op op)
{
    switch (op) {
      case Op::Const:
      case Op::Mov:
      case Op::Phi:
      case Op::Add: case Op::Sub: case Op::Mul:
      case Op::And: case Op::Or: case Op::Xor:
      case Op::Shl: case Op::Shr:
      case Op::CmpEq: case Op::CmpNe: case Op::CmpLt:
      case Op::CmpLe: case Op::CmpGt: case Op::CmpGe:
        return true;
      // Div/Rem are pure once guarded by DivCheck, but folding them
      // freely is still fine because translation always guards them.
      case Op::Div: case Op::Rem:
        return true;
      default:
        return false;
    }
}

bool
isCheck(Op op)
{
    switch (op) {
      case Op::NullCheck:
      case Op::BoundsCheck:
      case Op::DivCheck:
      case Op::SizeCheck:
      case Op::TypeCheck:
        return true;
      default:
        return false;
    }
}

bool
isLoad(Op op)
{
    switch (op) {
      case Op::LoadField:
      case Op::LoadElem:
      case Op::LoadRaw:
        return true;
      // LoadSubtype reads immutable metadata: treated as pure-ish but
      // kept separate because it reads memory in the machine model.
      case Op::LoadSubtype:
        return true;
      default:
        return false;
    }
}

bool
hasSideEffect(Op op)
{
    switch (op) {
      case Op::StoreField:
      case Op::StoreElem:
      case Op::StoreRaw:
      case Op::NewObject:
      case Op::NewArray:
      case Op::CallStatic:
      case Op::CallVirtual:
      case Op::MonitorEnter:
      case Op::MonitorExit:
      case Op::Safepoint:
      case Op::Print:
      case Op::Marker:
      case Op::Spawn:
      case Op::AtomicBegin:
      case Op::AtomicEnd:
      case Op::Assert:      // essential: only DCE must know (paper S4)
      case Op::NullCheck:
      case Op::BoundsCheck:
      case Op::DivCheck:
      case Op::SizeCheck:
      case Op::TypeCheck:
      case Op::Branch:
      case Op::Jump:
      case Op::Ret:
        return true;
      default:
        return false;
    }
}

size_t
firstEffectiveInstr(const Block &blk)
{
    size_t i = 0;
    while (i < blk.instrs.size() &&
           (blk.instrs[i].op == Op::Phi || blk.instrs[i].op == Op::Mov ||
            blk.instrs[i].op == Op::Const)) {
        ++i;
    }
    return i;
}

bool
isRegionEntryBlock(const Block &blk)
{
    const size_t lead = firstEffectiveInstr(blk);
    return lead < blk.instrs.size() &&
           blk.instrs[lead].op == Op::AtomicBegin;
}

std::string
Instr::toString() const
{
    std::ostringstream os;
    if (dst != NO_VREG)
        os << "v" << dst << " = ";
    os << opName(op);
    if (op == Op::Phi) {
        for (size_t i = 0; i < srcs.size(); ++i) {
            const int from =
                i < phiBlocks.size() ? phiBlocks[i] : -1;
            os << (i ? ", " : " ") << "[v" << srcs[i] << ", b"
               << from << "]";
        }
        return os.str();
    }
    for (Vreg s : srcs)
        os << " v" << s;
    switch (op) {
      case Op::Const:
      case Op::LoadRaw:
      case Op::StoreRaw:
      case Op::Marker:
        os << " #" << imm;
        break;
      default:
        break;
    }
    switch (op) {
      case Op::LoadField: case Op::StoreField:
        os << " field=" << aux;
        break;
      case Op::NewObject: case Op::LoadSubtype:
        os << " class=" << aux;
        break;
      case Op::CallStatic: case Op::Spawn:
        os << " method=" << aux;
        break;
      case Op::CallVirtual:
        os << " slot=" << aux;
        break;
      case Op::AtomicBegin: case Op::AtomicEnd:
        os << " region=" << aux;
        break;
      case Op::Assert:
        os << " abort=" << aux;
        break;
      default:
        break;
    }
    return os.str();
}

bool
Block::endsWithCall() const
{
    if (instrs.size() < 2)
        return false;
    const Op op = instrs[instrs.size() - 2].op;
    return op == Op::CallStatic || op == Op::CallVirtual;
}

void
Block::dropPhiSlot(int pred)
{
    for (Instr &in : instrs) {
        if (in.op != Op::Phi)
            break;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == pred) {
                in.phiBlocks.erase(in.phiBlocks.begin() +
                                   static_cast<long>(k));
                in.srcs.erase(in.srcs.begin() +
                              static_cast<long>(k));
                break;
            }
        }
    }
}

Function::Function(const Function &other)
    : name(other.name), methodId(other.methodId),
      numArgs(other.numArgs), entry(other.entry),
      ssaForm(other.ssaForm), regions(other.regions),
      nextVreg(other.nextVreg)
{
    blocksVec.reserve(other.blocksVec.size());
    for (const auto &blk : other.blocksVec)
        blocksVec.push_back(std::make_unique<Block>(*blk));
}

Function &
Function::operator=(const Function &other)
{
    if (this != &other)
        *this = Function(other);
    return *this;
}

bool
Function::operator==(const Function &other) const
{
    if (name != other.name || methodId != other.methodId ||
        numArgs != other.numArgs || entry != other.entry ||
        ssaForm != other.ssaForm || regions != other.regions ||
        nextVreg != other.nextVreg ||
        blocksVec.size() != other.blocksVec.size()) {
        return false;
    }
    for (size_t i = 0; i < blocksVec.size(); ++i) {
        if (!(*blocksVec[i] == *other.blocksVec[i]))
            return false;
    }
    return true;
}

Block &
Function::newBlock()
{
    auto blk = std::make_unique<Block>();
    blk->id = static_cast<int>(blocksVec.size());
    blocksVec.push_back(std::move(blk));
    return *blocksVec.back();
}

Block &
Function::block(int id)
{
    AREGION_ASSERT(id >= 0 && id < numBlocks(), "bad block id ", id);
    return *blocksVec[static_cast<size_t>(id)];
}

const Block &
Function::block(int id) const
{
    AREGION_ASSERT(id >= 0 && id < numBlocks(), "bad block id ", id);
    return *blocksVec[static_cast<size_t>(id)];
}

std::vector<std::vector<int>>
Function::computePreds() const
{
    std::vector<std::vector<int>> preds(
        static_cast<size_t>(numBlocks()));
    for (int b = 0; b < numBlocks(); ++b) {
        for (int s : block(b).succs)
            preds[static_cast<size_t>(s)].push_back(b);
    }
    return preds;
}

std::vector<int>
Function::reversePostOrder() const
{
    std::vector<int> order;
    std::vector<uint8_t> state(static_cast<size_t>(numBlocks()), 0);
    // Iterative post-order DFS, then reverse.
    std::vector<std::pair<int, size_t>> stack;
    stack.emplace_back(entry, 0);
    state[static_cast<size_t>(entry)] = 1;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const Block &blk = block(b);
        if (next < blk.succs.size()) {
            const int s = blk.succs[next++];
            if (!state[static_cast<size_t>(s)]) {
                state[static_cast<size_t>(s)] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

int
Function::countInstrs() const
{
    int total = 0;
    for (int b : reversePostOrder())
        total += static_cast<int>(block(b).instrs.size());
    return total;
}

std::vector<int>
Function::compact()
{
    const std::vector<int> order = reversePostOrder();
    std::vector<int> remap(static_cast<size_t>(numBlocks()), -1);
    for (size_t i = 0; i < order.size(); ++i)
        remap[static_cast<size_t>(order[i])] = static_cast<int>(i);

    std::vector<std::unique_ptr<Block>> next;
    next.reserve(order.size());
    for (int old_id : order) {
        auto blk = std::move(blocksVec[static_cast<size_t>(old_id)]);
        blk->id = remap[static_cast<size_t>(old_id)];
        for (int &s : blk->succs) {
            AREGION_ASSERT(remap[static_cast<size_t>(s)] != -1,
                           "reachable block points at dead block");
            s = remap[static_cast<size_t>(s)];
        }
        // Phi slots whose predecessor died go away with the edge.
        for (Instr &in : blk->instrs) {
            if (in.op != Op::Phi)
                continue;
            size_t keep = 0;
            for (size_t i = 0; i < in.phiBlocks.size(); ++i) {
                const int p =
                    remap[static_cast<size_t>(in.phiBlocks[i])];
                if (p == -1)
                    continue;
                in.phiBlocks[keep] = p;
                in.srcs[keep] = in.srcs[i];
                ++keep;
            }
            in.phiBlocks.resize(keep);
            in.srcs.resize(keep);
        }
        next.push_back(std::move(blk));
    }
    blocksVec = std::move(next);
    entry = remap[static_cast<size_t>(entry)];

    std::vector<RegionInfo> kept;
    for (RegionInfo &r : regions) {
        const int e = remap[static_cast<size_t>(r.entryBlock)];
        if (e == -1)
            continue;
        r.entryBlock = e;
        AREGION_ASSERT(remap[static_cast<size_t>(r.altBlock)] != -1,
                       "region alt block died while entry survived");
        r.altBlock = remap[static_cast<size_t>(r.altBlock)];
        kept.push_back(r);
    }
    // Renumber region ids densely and fix block tags plus the ids
    // stored inside AtomicBegin/AtomicEnd instructions.
    std::map<int, int> region_remap;
    for (size_t i = 0; i < kept.size(); ++i) {
        region_remap[kept[i].id] = static_cast<int>(i);
        kept[i].id = static_cast<int>(i);
    }
    regions = std::move(kept);
    for (auto &blk : blocksVec) {
        if (blk->regionId >= 0) {
            auto it = region_remap.find(blk->regionId);
            blk->regionId = it == region_remap.end() ? -1 : it->second;
        }
        for (Instr &in : blk->instrs) {
            if (in.op == Op::AtomicBegin || in.op == Op::AtomicEnd) {
                auto it = region_remap.find(in.aux);
                AREGION_ASSERT(it != region_remap.end(),
                               "atomic op for dropped region survived");
                in.aux = it->second;
            }
        }
    }
    return remap;
}

} // namespace aregion::ir
