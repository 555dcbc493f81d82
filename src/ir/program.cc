#include "ir/program.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "ir/verifier.h"

namespace noreba {

Layout::Layout(const Function &fn)
{
    blockBase_.resize(fn.numBlocks());
    uint64_t pc = CODE_BASE;
    for (size_t i = 0; i < fn.numBlocks(); ++i) {
        blockBase_[i] = pc;
        pc += fn.block(static_cast<int>(i)).insts.size() * INST_BYTES;
    }
    codeBytes_ = pc - CODE_BASE;
}

uint64_t
Program::allocGlobal(uint64_t bytes)
{
    uint64_t base = (heapNext_ + 15) & ~15ull;
    heapNext_ = base + bytes;
    DataSegment seg;
    seg.base = base;
    seg.bytes.assign(bytes, 0);
    addSegment(std::move(seg));
    return base;
}

void
Program::pokeBytes(uint64_t addr, const void *data, size_t len)
{
    auto pokeInto = [&](size_t i) {
        DataSegment &seg = segs_[i];
        if (addr < seg.base || addr + len > seg.base + seg.bytes.size())
            return false;
        std::memcpy(seg.bytes.data() + (addr - seg.base), data, len);
        lastSeg_ = i;
        return true;
    };
    // Workloads poke value after value into one segment. The last hit
    // is what a full scan would find first only while no two segments
    // overlap, so the shortcut is taken only then.
    if (segsDisjoint_ && lastSeg_ < segs_.size() && pokeInto(lastSeg_))
        return;
    for (size_t i = 0; i < segs_.size(); ++i)
        if (pokeInto(i))
            return;
    // Not inside an existing segment: create a dedicated one.
    DataSegment seg;
    seg.base = addr;
    seg.bytes.resize(len);
    std::memcpy(seg.bytes.data(), data, len);
    addSegment(std::move(seg));
}

void
Program::addSegment(DataSegment seg)
{
    const uint64_t end = seg.base + seg.bytes.size();
    for (const DataSegment &s : segs_)
        if (seg.base < s.base + s.bytes.size() && s.base < end)
            segsDisjoint_ = false;
    segs_.push_back(std::move(seg));
}

std::vector<DataSegment>
Program::takeDataSegments()
{
    lastSeg_ = 0;
    segsDisjoint_ = true;
    return std::exchange(segs_, {});
}

void
Program::finalize()
{
    fn_.computeCFG();
    Diagnostics diag(name_);
    fatal_if(!verifyStructure(*this, diag),
             "program %s fails verification: %s", name_.c_str(),
             diag.findings().front().toString().c_str());
    layout_ = Layout(fn_);
}

} // namespace noreba
