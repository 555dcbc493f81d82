#include "interp/trace.h"

#include <bit>
#include <cstddef>
#include <cstring>

#include "common/error.h"
#include "common/logging.h"

namespace noreba {

size_t
DynamicTrace::StaticHash::operator()(const StaticInst &s) const
{
    uint64_t lo, hi; // op, memSize, the four registers, pad and addrHi
    static_assert(offsetof(StaticInst, op) == 16);
    std::memcpy(&lo, reinterpret_cast<const uint8_t *>(&s) + 16, 8);
    std::memcpy(&hi, reinterpret_cast<const uint8_t *>(&s) + 24, 8);
    uint64_t h = s.pc * 0x9e3779b97f4a7c15ull;
    h ^= s.nextPc * 0xc2b2ae3d27d4eb4full;
    // Rotated, not shifted, so every bit of addrHi (hi's top half) counts.
    h ^= (lo ^ std::rotl(hi, 17)) * 0x165667b19e3779f9ull;
    return static_cast<size_t>(h ^ (h >> 29));
}

uint32_t
DynamicTrace::intern(const TraceRecord &rec)
{
    StaticInst s;
    s.pc = rec.pc;
    s.nextPc = rec.nextPc;
    s.op = rec.op;
    s.memSize = rec.memSize;
    s.rd = rec.rd;
    s.rs1 = rec.rs1;
    s.rs2 = rec.rs2;
    s.rs3 = rec.rs3;
    s.addrHi = static_cast<uint32_t>(rec.addrOrImm >> 32);

    // Index whatever was stored without push() (a copied table).
    if (indexed_ > statics.size()) {
        ids_.clear();
        indexed_ = 0;
    }
    for (; indexed_ < statics.size(); ++indexed_)
        ids_.try_emplace(statics[indexed_],
                         static_cast<uint32_t>(indexed_));

    auto it = ids_.find(s);
    if (it == ids_.end()) {
        if (statics.size() >= MAX_STATIC_INSTS)
            throw SimError(
                "interp.trace_limit",
                strfmt("static table for %s exceeds the limit of %llu "
                       "entries", name.c_str(),
                       static_cast<unsigned long long>(MAX_STATIC_INSTS)));
        it = ids_.emplace(s, static_cast<uint32_t>(statics.size())).first;
        statics.push_back(s);
        ++indexed_;
    }
    return it->second;
}

} // namespace noreba
