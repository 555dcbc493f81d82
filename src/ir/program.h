/**
 * @file
 * A Program bundles the (single) function of a workload with its
 * initialized data segments, and provides the code layout that assigns
 * a PC to every instruction (blocks laid out in id order, 4 bytes per
 * instruction — RISC-V RV64 flavoured).
 */

#ifndef NOREBA_IR_PROGRAM_H
#define NOREBA_IR_PROGRAM_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/page_alloc.h"
#include "ir/function.h"

namespace noreba {

/** Base virtual address of the code segment. */
constexpr uint64_t CODE_BASE = 0x10000;
/** Size of one encoded instruction. */
constexpr uint64_t INST_BYTES = 4;
/** Default stack pointer at program start (grows down). */
constexpr uint64_t STACK_TOP = 0x7fff0000;
/** Base of the heap region handed out by Program::allocGlobal(). */
constexpr uint64_t HEAP_BASE = 0x100000;

/** One initialized data region. */
struct DataSegment
{
    uint64_t base = 0;
    PageVector<uint8_t> bytes; //!< mapped pages once large
};

/**
 * Code layout: PC assignment for every instruction of a function.
 * Recomputed after the annotation pass inserts setup instructions.
 */
class Layout
{
  public:
    Layout() = default;
    explicit Layout(const Function &fn);

    /** PC of instruction `idx` within block `bb`. */
    uint64_t pc(int bb, int idx) const
    {
        return blockBase_[bb] + static_cast<uint64_t>(idx) * INST_BYTES;
    }

    /** PC of the first instruction of block `bb`. */
    uint64_t blockPc(int bb) const { return blockBase_[bb]; }

    /** Total instruction footprint in bytes. */
    uint64_t codeBytes() const { return codeBytes_; }

  private:
    std::vector<uint64_t> blockBase_;
    uint64_t codeBytes_ = 0;
};

/**
 * A complete workload program: one function, initialized data, and a
 * fresh-layout helper.
 */
class Program
{
  public:
    explicit Program(std::string name = "prog")
        : name_(std::move(name)), fn_(name_) {}

    const std::string &name() const { return name_; }

    Function &function() { return fn_; }
    const Function &function() const { return fn_; }

    /** @name Data segment construction @{ */

    /**
     * Reserve `bytes` of zero-initialized global memory; returns its base
     * address. Alignment is 16 bytes.
     */
    uint64_t allocGlobal(uint64_t bytes);

    /** Write raw bytes at an absolute address (extending segments). */
    void pokeBytes(uint64_t addr, const void *data, size_t len);

    void poke64(uint64_t addr, uint64_t value) { poke(addr, value); }
    void poke32(uint64_t addr, uint32_t value) { poke(addr, value); }
    void pokeDouble(uint64_t addr, double value) { poke(addr, value); }

    const std::vector<DataSegment> &dataSegments() const { return segs_; }
    /** No two data segments share a byte. */
    bool segmentsDisjoint() const { return segsDisjoint_; }

    /**
     * Hand the data segments over, leaving the program none: an
     * Interpreter adopts them as its memory image.
     */
    std::vector<DataSegment> takeDataSegments();
    /** @} */

    /** Recompute the CFG, verifyStructure() (fatal() on its first
     *  finding) and build the layout. Call before use. */
    void finalize();

    const Layout &layout() const { return layout_; }

  private:
    /** pokeBytes() of one value, inline while it lands in the segment
     *  the last poke hit (the common case; see pokeBytes()). */
    template <typename T>
    void
    poke(uint64_t addr, T value)
    {
        if (segsDisjoint_ && lastSeg_ < segs_.size()) {
            DataSegment &seg = segs_[lastSeg_];
            if (addr >= seg.base &&
                addr - seg.base + sizeof(T) <= seg.bytes.size()) {
                std::memcpy(seg.bytes.data() + (addr - seg.base), &value,
                            sizeof(T));
                return;
            }
        }
        pokeBytes(addr, &value, sizeof(T));
    }

    void addSegment(DataSegment seg);

    std::string name_;
    Function fn_;
    std::vector<DataSegment> segs_;
    size_t lastSeg_ = 0;       //!< segment the last poke hit
    bool segsDisjoint_ = true; //!< no two segments overlap
    Layout layout_;
    uint64_t heapNext_ = HEAP_BASE;
};

} // namespace noreba

#endif // NOREBA_IR_PROGRAM_H
