#include "ir/reaching_defs.h"

#include <algorithm>

#include "common/logging.h"

namespace noreba {

namespace {

inline void
setBit(std::vector<uint64_t> &bits, int i)
{
    bits[static_cast<size_t>(i) >> 6] |= 1ull << (i & 63);
}

inline void
clearBit(std::vector<uint64_t> &bits, int i)
{
    bits[static_cast<size_t>(i) >> 6] &= ~(1ull << (i & 63));
}

inline bool
testBit(const std::vector<uint64_t> &bits, int i)
{
    return bits[static_cast<size_t>(i) >> 6] & (1ull << (i & 63));
}

} // namespace

ReachingDefs::ReachingDefs(const Function &fn)
    : fn_(fn), defsByReg_(NUM_ARCH_REGS)
{
    const int nblocks = static_cast<int>(fn.numBlocks());
    defIdsByBlock_.resize(nblocks);

    // Number every def site. Writes to x0 are discarded (hardwired zero).
    for (int b = 0; b < nblocks; ++b) {
        const auto &bb = fn.block(b);
        defIdsByBlock_[b].assign(bb.insts.size(), -1);
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const auto &inst = bb.insts[i];
            if (!inst.hasDest())
                continue;
            int id = static_cast<int>(defs_.size());
            defs_.push_back({b, static_cast<int>(i), inst.rd});
            defsByReg_[inst.rd].push_back(id);
            defIdsByBlock_[b][i] = id;
        }
    }

    words_ = (defs_.size() + 63) / 64;
    if (words_ == 0)
        words_ = 1;

    // GEN/KILL per block.
    std::vector<std::vector<uint64_t>> gen(nblocks), kill(nblocks);
    for (int b = 0; b < nblocks; ++b) {
        gen[b].assign(words_, 0);
        kill[b].assign(words_, 0);
        const auto &bb = fn.block(b);
        // Walk forward: a later def of the same reg kills earlier gens.
        std::vector<int> lastDefOfReg(NUM_ARCH_REGS, -1);
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            int id = defIdsByBlock_[b][i];
            if (id < 0)
                continue;
            Reg r = defs_[id].reg;
            if (lastDefOfReg[r] >= 0)
                clearBit(gen[b], lastDefOfReg[r]);
            setBit(gen[b], id);
            lastDefOfReg[r] = id;
        }
        // KILL: all defs of any register this block redefines.
        for (int r = 0; r < NUM_ARCH_REGS; ++r) {
            if (lastDefOfReg[r] < 0)
                continue;
            for (int id : defsByReg_[r])
                setBit(kill[b], id);
        }
    }

    // Iterate IN/OUT to a fixpoint (union over predecessors). The
    // gen/kill frame is monotone, so the fixpoint is unique.
    blockIn_.assign(nblocks, std::vector<uint64_t>(words_, 0));
    std::vector<std::vector<uint64_t>> out(
        nblocks, std::vector<uint64_t>(words_, 0));
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = 0; b < nblocks; ++b) {
            auto &in = blockIn_[b];
            std::fill(in.begin(), in.end(), 0);
            for (int p : fn.block(b).preds)
                for (size_t w = 0; w < words_; ++w)
                    in[w] |= out[p][w];
            for (size_t w = 0; w < words_; ++w) {
                uint64_t v = gen[b][w] | (in[w] & ~kill[b][w]);
                if (v != out[b][w]) {
                    out[b][w] = v;
                    changed = true;
                }
            }
        }
    }
}

int
ReachingDefs::defIdAt(int bb, int idx) const
{
    return defIdsByBlock_[bb][idx];
}

ReachingDefs::Scanner::Scanner(const ReachingDefs &rd, int bb)
    : rd_(rd), bb_(bb), live_(rd.blockIn_[bb])
{
}

void
ReachingDefs::Scanner::reachingDefs(Reg reg, std::vector<int> &out) const
{
    if (reg == REG_NONE || reg == REG_ZERO)
        return;
    for (int id : rd_.defsByReg_[reg])
        if (testBit(live_, id))
            out.push_back(id);
}

void
ReachingDefs::Scanner::advance()
{
    panic_if(done(), "scanner advanced past block end");
    int id = rd_.defIdsByBlock_[bb_][idx_];
    if (id >= 0) {
        Reg r = rd_.defs_[id].reg;
        for (int other : rd_.defsByReg_[r])
            clearBit(live_, other);
        setBit(live_, id);
    }
    ++idx_;
}

bool
ReachingDefs::Scanner::done() const
{
    return idx_ >=
           static_cast<int>(rd_.fn_.block(bb_).insts.size());
}

namespace {

/** Memory access classification for the alias oracle. */
enum class MemClass { Stack, Region, Unknown };

MemClass
classify(const Instruction &inst)
{
    if (inst.rs1 == REG_SP || inst.rs1 == REG_FP)
        return MemClass::Stack;
    if (inst.aliasRegion == ALIAS_UNKNOWN)
        return MemClass::Unknown;
    return MemClass::Region;
}

} // namespace

bool
mayAlias(const Instruction &a, const Instruction &b)
{
    if (!isMem(a.op) || !isMem(b.op))
        return false;

    MemClass ca = classify(a), cb = classify(b);
    if (ca == MemClass::Unknown || cb == MemClass::Unknown)
        return true;
    if (ca == MemClass::Stack && cb == MemClass::Stack) {
        if (a.rs1 != b.rs1)
            return true; // sp-vs-fp: conservatively may overlap
        int64_t aLo = a.imm, aHi = a.imm + memAccessSize(a.op);
        int64_t bLo = b.imm, bHi = b.imm + memAccessSize(b.op);
        return aLo < bHi && bLo < aHi;
    }
    if (ca == MemClass::Stack || cb == MemClass::Stack)
        return false; // stack never aliases a named heap region
    return a.aliasRegion == b.aliasRegion;
}

} // namespace noreba
