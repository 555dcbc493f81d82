/**
 * @file
 * Functional (architectural) simulator for IR programs. Executes a
 * Program and emits the dynamic trace the timing model replays. The
 * interpreter also replays the BIT/DCT setup-instruction semantics of
 * Table 1 architecturally, so every trace record carries its dynamic
 * guard branch.
 */

#ifndef NOREBA_INTERP_INTERPRETER_H
#define NOREBA_INTERP_INTERPRETER_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "interp/trace.h"
#include "ir/program.h"

namespace noreba {

/**
 * Sparse byte-addressed memory image (4 KiB pages). An image loaded
 * from a program's data segments adopts their storage: each whole page
 * of a segment is the segment's own bytes. Every other page is carved
 * in first-touch order from 2 MiB slabs of mapped memory, which start
 * zeroed and leave the process with the image (common/page_alloc.h).
 * A one-entry last-page cache serves the common run of accesses to one
 * page; values are copied whole and split only at a page boundary.
 *
 * Pages point into storage the image owns, which stays put when the
 * image moves; an image cannot be copied.
 */
class MemoryImage
{
  public:
    static constexpr uint64_t PAGE_BYTES = 4096;
    static constexpr size_t SLAB_PAGES = 512;
    static constexpr size_t SLAB_BYTES = SLAB_PAGES * PAGE_BYTES;

    /** An image that reads zero everywhere. */
    MemoryImage() = default;

    /**
     * An image holding @p segs' bytes. When they are @p disjoint (no
     * two share a byte; Program::segmentsDisjoint()), the image keeps
     * @p segs and maps every whole page of each onto the segment's
     * bytes, copying only the partial pages at its ends. Otherwise they
     * are copied in order, a later one over an earlier, as writeBytes()
     * would.
     */
    MemoryImage(std::vector<DataSegment> segs, bool disjoint);

    MemoryImage(const MemoryImage &) = delete;
    MemoryImage &operator=(const MemoryImage &) = delete;
    MemoryImage(MemoryImage &&) = default;
    MemoryImage &operator=(MemoryImage &&) = default;

    uint8_t read8(uint64_t addr) const;
    void write8(uint64_t addr, uint8_t value);

    uint64_t read(uint64_t addr, int bytes) const;
    void write(uint64_t addr, uint64_t value, int bytes);

    /** Copy @p len bytes in, one memcpy per page touched. */
    void writeBytes(uint64_t addr, const uint8_t *data, size_t len);

    size_t numPages() const { return pages_.size(); }

  private:
    struct SlabFree
    {
        void operator()(uint8_t *slab) const noexcept;
    };
    using Slab = std::unique_ptr<uint8_t[], SlabFree>;

    mutable std::unordered_map<uint64_t, uint8_t *> pages_;
    /** Segments whose whole pages are in pages_. */
    std::vector<DataSegment> adopted_;
    mutable std::vector<Slab> slabs_;
    /** Pages handed out from slabs_.back(). */
    mutable size_t slabUsed_ = SLAB_PAGES;
    mutable uint64_t lastKey_ = 0;
    /** Points into a slab or a segment, which stay put when the
     *  image moves. */
    mutable uint8_t *lastPage_ = nullptr;

    uint8_t *page(uint64_t addr) const;
};

/** Interpreter run options. */
struct InterpOptions
{
    /** Stop after this many dynamic instructions (setups excluded). */
    uint64_t maxDynInsts = 2'000'000;
};

/**
 * Records Interpreter::run() reserves for a cap of @p maxDynInsts:
 * room for one setup record per counted instruction (the registry's
 * largest share is about one per two at 250k), at most
 * MAX_RECORD_RESERVATION. The reservation is address space until
 * written; a run that outgrows it still builds, its records then
 * relocating as a vector's do.
 */
size_t recordReservation(uint64_t maxDynInsts);

/** recordReservation()'s ceiling: 192 MiB of records. */
constexpr size_t MAX_RECORD_RESERVATION = size_t{1} << 24;

/**
 * Executes one Program, which it owns: its data segments become the
 * memory image (MemoryImage's adopting constructor), so each byte is
 * held once. Pass an rvalue to spare the copy. Like its image, an
 * interpreter moves but cannot be copied.
 */
class Interpreter
{
  public:
    explicit Interpreter(Program prog);

    /**
     * Run to HALT (or the instruction limit); returns the trace. Its
     * records are written where they stay: into a reservation of
     * recordReservation(opts.maxDynInsts) records when that is mapped
     * memory, whose unused tail goes back to the kernel at the end
     * (pageTrimTail()).
     */
    DynamicTrace run(const InterpOptions &opts = {});

    /** @name Final architectural state (after run()) @{ */
    int64_t intReg(int r) const { return x_[r]; }
    double fpReg(int r) const { return f_[r]; }
    const MemoryImage &memory() const { return mem_; }

    /** FNV-1a checksum over registers, for result-equivalence tests. */
    uint64_t regChecksum() const;
    /** @} */

  private:
    Program prog_; //!< its data segments are mem_'s
    std::array<int64_t, NUM_INT_REGS> x_{};
    std::array<double, NUM_FP_REGS> f_{};
    MemoryImage mem_;
};

} // namespace noreba

#endif // NOREBA_INTERP_INTERPRETER_H
