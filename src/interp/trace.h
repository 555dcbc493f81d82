/**
 * @file
 * Dynamic trace format produced by the functional interpreter and
 * consumed by the cycle-level core model. One record per fetched
 * instruction (setup instructions included — they occupy fetch slots
 * and are dropped at decode, as in the paper).
 *
 * A trace is stored in two parts. A small static table holds one
 * StaticInst per distinct (pc, nextPc, op, memSize, rd, rs1, rs2, rs3,
 * addrHi) tuple; a 12-byte DynRecord per executed instruction holds the
 * static id, four flag bits, the guard and the low 32 bits of the
 * address or immediate. Readers see whole TraceRecords, composed on
 * access by TraceView.
 */

#ifndef NOREBA_INTERP_TRACE_H
#define NOREBA_INTERP_TRACE_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/page_alloc.h"
#include "isa/isa.h"

namespace noreba {

/** Index of a dynamic instruction within its trace. */
using TraceIdx = int32_t;
constexpr TraceIdx TRACE_NONE = -1;

/**
 * Hard cap on trace length: every record must be addressable by a
 * TraceIdx, and guardIdx/cursor arithmetic assumes indices never wrap.
 * The interpreter fails fast when a trace would exceed this.
 */
constexpr uint64_t MAX_TRACE_RECORDS =
    static_cast<uint64_t>(INT32_MAX);

/** One dynamic instruction, as every trace consumer sees it. */
struct TraceRecord
{
    uint64_t pc = 0;
    uint64_t nextPc = 0;     //!< PC actually executed next
    uint64_t addrOrImm = 0;  //!< memory address, or setup-instruction imm
    Opcode op = Opcode::NOP;
    uint8_t memSize = 0;
    bool taken = false;      //!< conditional branch outcome
    bool markedBranch = false; //!< a setBranchId immediately preceded it
    /**
     * The covering setDependency carried the order-sensitive flag: the
     * instruction consumes values flowing through its guard's region,
     * so the guard's static site needs in-order instance retirement.
     */
    bool orderSensitive = false;
    /** Strict region: retire only when no older branch is unresolved. */
    bool orderStrict = false;
    Reg rd = REG_NONE;
    Reg rs1 = REG_NONE;
    Reg rs2 = REG_NONE;
    Reg rs3 = REG_NONE;

    /**
     * Dynamic guard: trace index of the branch instance this
     * instruction was marked dependent on, via the architectural
     * BIT/DCT replay of the setup instructions (TRACE_NONE = BranchID 0,
     * i.e. independent / unannotated).
     */
    TraceIdx guardIdx = TRACE_NONE;

    bool isSetup() const { return noreba::isSetup(op); }
    bool isCondBr() const { return isCondBranch(op); }
    /** Any control-flow instruction the predictor must handle. */
    bool isBranchSite() const
    {
        return isCondBranch(op) || op == Opcode::JALR;
    }
};

/**
 * The static half of a record: the fields every dynamic instance of
 * one static tuple repeats. A cond branch gets one entry per direction
 * and a JALR one per target, because nextPc is part of the tuple; a
 * site whose address high half changes gets one per high half, because
 * addrHi is part of it too. Setup immediates are fixed per site and
 * every data address lies below STACK_TOP, so a registry site keeps one.
 */
struct StaticInst
{
    uint64_t pc = 0;
    uint64_t nextPc = 0;
    Opcode op = Opcode::NOP;
    uint8_t memSize = 0;
    Reg rd = REG_NONE;
    Reg rs1 = REG_NONE;
    Reg rs2 = REG_NONE;
    Reg rs3 = REG_NONE;
    /** Explicit, always zero: the table is hashed and stored bytewise. */
    uint8_t pad[2] = {};
    /** The high 32 bits of the address or immediate. */
    uint32_t addrHi = 0;

    bool operator==(const StaticInst &) const = default;
};
static_assert(sizeof(StaticInst) == 32, "StaticInst must stay unpadded");

/** @name DynRecord flag bits (the low bits of DynRecord::idFlags) @{ */
constexpr uint32_t DYN_TAKEN = 1u << 0;
constexpr uint32_t DYN_MARKED_BRANCH = 1u << 1;
constexpr uint32_t DYN_ORDER_SENSITIVE = 1u << 2;
constexpr uint32_t DYN_ORDER_STRICT = 1u << 3;
constexpr int DYN_FLAG_BITS = 4;
/** @} */

/** Static ids must fit above the flag bits of a 32-bit word. */
constexpr uint64_t MAX_STATIC_INSTS = uint64_t{1}
                                      << (32 - DYN_FLAG_BITS);

/** The per-instance half of a record: 12 bytes. */
struct DynRecord
{
    uint32_t idFlags = 0; //!< staticId << DYN_FLAG_BITS | DYN_* flags
    TraceIdx guardIdx = TRACE_NONE;
    uint32_t addrLo = 0;  //!< the low 32 bits of the address or immediate

    uint32_t staticId() const { return idFlags >> DYN_FLAG_BITS; }
};
static_assert(sizeof(DynRecord) == 12, "the dynamic record is 12 bytes");

/** Join the two halves of one record. */
inline TraceRecord
composeRecord(const StaticInst &s, const DynRecord &d)
{
    TraceRecord r;
    r.pc = s.pc;
    r.nextPc = s.nextPc;
    r.addrOrImm = uint64_t{s.addrHi} << 32 | d.addrLo;
    r.op = s.op;
    r.memSize = s.memSize;
    r.taken = (d.idFlags & DYN_TAKEN) != 0;
    r.markedBranch = (d.idFlags & DYN_MARKED_BRANCH) != 0;
    r.orderSensitive = (d.idFlags & DYN_ORDER_SENSITIVE) != 0;
    r.orderStrict = (d.idFlags & DYN_ORDER_STRICT) != 0;
    r.rd = s.rd;
    r.rs1 = s.rs1;
    r.rs2 = s.rs2;
    r.rs3 = s.rs3;
    r.guardIdx = d.guardIdx;
    return r;
}

/**
 * Forward iterator over a static table and a dynamic stream, yielding
 * composed TraceRecords by value.
 */
class TraceIterator
{
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TraceRecord;

    TraceIterator() = default;
    TraceIterator(const StaticInst *statics, const DynRecord *dyn)
        : statics_(statics), dyn_(dyn)
    {
    }

    TraceRecord
    operator*() const
    {
        return composeRecord(statics_[dyn_->staticId()], *dyn_);
    }

    TraceIterator &
    operator++()
    {
        ++dyn_;
        return *this;
    }

    TraceIterator
    operator++(int)
    {
        TraceIterator old = *this;
        ++dyn_;
        return old;
    }

    bool
    operator==(const TraceIterator &o) const
    {
        return dyn_ == o.dyn_;
    }

  private:
    const StaticInst *statics_ = nullptr;
    const DynRecord *dyn_ = nullptr;
};

/**
 * Per-trace summary statistics, separate from the record storage so a
 * TraceView can carry them without owning the records.
 */
struct TraceSummary
{
    uint64_t dynInsts = 0;       //!< records excluding setup instructions
    uint64_t setupInsts = 0;
    uint64_t branches = 0;       //!< conditional + indirect branch count
    uint64_t takenBranches = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    bool truncated = false;      //!< hit the dynamic instruction limit
};

/** A full dynamic trace (owning storage) plus summary statistics. */
struct DynamicTrace : TraceSummary
{
    std::string name;
    std::vector<StaticInst> statics; //!< indexed by DynRecord::staticId()
    /** One per record, in trace order; mapped pages once large, so a
     *  freed trace's memory leaves the process (common/page_alloc.h). */
    PageVector<DynRecord> dyn;

    size_t size() const { return dyn.size(); }

    TraceRecord
    operator[](size_t i) const
    {
        return composeRecord(statics[dyn[i].staticId()], dyn[i]);
    }

    TraceIterator begin() const { return {statics.data(), dyn.data()}; }
    TraceIterator
    end() const
    {
        return {statics.data(), dyn.data() + dyn.size()};
    }

    /**
     * Append @p rec, interning its static tuple through the hash index.
     * Throws SimError ("interp.trace_limit") past MAX_STATIC_INSTS
     * distinct tuples.
     *
     * @p siteId is the caller's cache of a static id plus one (0 =
     * empty), kept per code site. If the entry it names has rec's pc,
     * nextPc and address high half, push() reuses that id without
     * building the tuple; otherwise it interns and refills the cache.
     * Only those three are checked, so every record's op and registers
     * must follow from its pc, as they do in one program's trace.
     */
    void
    push(const TraceRecord &rec, uint32_t &siteId)
    {
        uint32_t id = siteId - 1; // an empty cache wraps past every id
        if (id >= statics.size() || statics[id].pc != rec.pc ||
            statics[id].nextPc != rec.nextPc ||
            statics[id].addrHi != rec.addrOrImm >> 32) {
            id = intern(rec);
            siteId = id + 1;
        }
        DynRecord d;
        d.idFlags = id << DYN_FLAG_BITS;
        if (rec.taken)
            d.idFlags |= DYN_TAKEN;
        if (rec.markedBranch)
            d.idFlags |= DYN_MARKED_BRANCH;
        if (rec.orderSensitive)
            d.idFlags |= DYN_ORDER_SENSITIVE;
        if (rec.orderStrict)
            d.idFlags |= DYN_ORDER_STRICT;
        d.guardIdx = rec.guardIdx;
        d.addrLo = static_cast<uint32_t>(rec.addrOrImm);
        dyn.push_back(d);
    }

  private:
    struct StaticHash
    {
        size_t operator()(const StaticInst &s) const;
    };

    /** The id of @p rec's static tuple, adding it if new. */
    uint32_t intern(const TraceRecord &rec);

    /** statics[0, indexed_) by tuple; intern() catches up on entries
     *  stored directly (stripSetupRecords copies a whole table). */
    std::unordered_map<StaticInst, uint32_t, StaticHash> ids_;
    size_t indexed_ = 0;
};

/**
 * Read-only view of a prepared trace: indexed record access plus the
 * summary statistics, decoupled from where the records live. The
 * backing storage is either a DynamicTrace's in-memory vectors or a
 * memory-mapped on-disk bundle (sim/trace_store.h); the consumer —
 * Core, the commit policies, the predictor precompute — cannot tell the
 * difference, which is what makes serialized replay bit-identical to
 * in-memory replay.
 *
 * operator[] composes a TraceRecord by value; pcOf(), guardOf() and
 * isBranchSiteAt() read one field for the hot random-access paths.
 *
 * A view is a cheap value type (pointers + sizes + copied summary). It
 * does not keep its backing alive: the DynamicTrace or mapped bundle
 * must outlive every view onto it.
 */
class TraceView
{
  public:
    TraceView() = default;

    /** View over an in-memory trace (the common case). */
    /*implicit*/ TraceView(const DynamicTrace &t)
        : statics_(t.statics.data()), numStatics_(t.statics.size()),
          dyn_(t.dyn.data()), size_(t.dyn.size()), summary_(t),
          name_(t.name)
    {
    }

    /** Viewing a temporary would dangle immediately. */
    TraceView(DynamicTrace &&) = delete;

    /** View over externally owned storage (mmap-backed bundles). */
    TraceView(std::string name, const StaticInst *statics,
              size_t numStatics, const DynRecord *dyn, size_t size,
              const TraceSummary &summary)
        : statics_(statics), numStatics_(numStatics), dyn_(dyn),
          size_(size), summary_(summary), name_(std::move(name))
    {
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    TraceRecord
    operator[](size_t i) const
    {
        return composeRecord(staticOf(i), dyn_[i]);
    }
    TraceRecord
    operator[](TraceIdx i) const
    {
        return (*this)[static_cast<size_t>(i)];
    }

    uint64_t pcOf(size_t i) const { return staticOf(i).pc; }
    TraceIdx guardOf(size_t i) const { return dyn_[i].guardIdx; }
    bool
    isBranchSiteAt(size_t i) const
    {
        const Opcode op = staticOf(i).op;
        return isCondBranch(op) || op == Opcode::JALR;
    }

    TraceIterator begin() const { return {statics_, dyn_}; }
    TraceIterator end() const { return {statics_, dyn_ + size_}; }

    /** @name The two stored sections @{ */
    const StaticInst *statics() const { return statics_; }
    size_t numStatics() const { return numStatics_; }
    const DynRecord *dyn() const { return dyn_; }
    /** @} */

    const TraceSummary &summary() const { return summary_; }
    const std::string &name() const { return name_; }

  private:
    const StaticInst &
    staticOf(size_t i) const
    {
        return statics_[dyn_[i].staticId()];
    }

    const StaticInst *statics_ = nullptr;
    size_t numStatics_ = 0;
    const DynRecord *dyn_ = nullptr;
    size_t size_ = 0;
    TraceSummary summary_;
    std::string name_;
};

} // namespace noreba

#endif // NOREBA_INTERP_TRACE_H
