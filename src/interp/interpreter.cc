#include "interp/interpreter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/page_alloc.h"
#include "isa/setup_encoding.h"

namespace noreba {

// read()/write() memcpy whole values: the image is little-endian, as
// RV64 is, only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "MemoryImage assumes a little-endian host");

void
MemoryImage::SlabFree::operator()(uint8_t *slab) const noexcept
{
    pageFree(slab, SLAB_BYTES);
}

uint8_t *
MemoryImage::page(uint64_t addr) const
{
    const uint64_t key = addr / PAGE_BYTES;
    if (lastPage_ && key == lastKey_)
        return lastPage_;
    auto it = pages_.find(key);
    if (it == pages_.end()) {
        if (slabUsed_ == SLAB_PAGES) {
            Slab slab(static_cast<uint8_t *>(pageAllocate(SLAB_BYTES)));
            // A fresh mapping is zero already; operator new's is not.
            if (!pageMapped(SLAB_BYTES))
                std::memset(slab.get(), 0, SLAB_BYTES);
            slabs_.push_back(std::move(slab));
            slabUsed_ = 0;
        }
        uint8_t *fresh = slabs_.back().get() + slabUsed_ * PAGE_BYTES;
        it = pages_.emplace(key, fresh).first;
        ++slabUsed_;
    }
    lastKey_ = key;
    lastPage_ = it->second;
    return lastPage_;
}

uint8_t
MemoryImage::read8(uint64_t addr) const
{
    return page(addr)[addr % PAGE_BYTES];
}

void
MemoryImage::write8(uint64_t addr, uint8_t value)
{
    page(addr)[addr % PAGE_BYTES] = value;
}

uint64_t
MemoryImage::read(uint64_t addr, int bytes) const
{
    const uint64_t off = addr % PAGE_BYTES;
    uint64_t v = 0;
    if (off + static_cast<uint64_t>(bytes) <= PAGE_BYTES) {
        std::memcpy(&v, page(addr) + off, static_cast<size_t>(bytes));
        return v;
    }
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<uint64_t>(read8(addr + i)) << (8 * i);
    return v;
}

void
MemoryImage::write(uint64_t addr, uint64_t value, int bytes)
{
    const uint64_t off = addr % PAGE_BYTES;
    if (off + static_cast<uint64_t>(bytes) <= PAGE_BYTES) {
        std::memcpy(page(addr) + off, &value, static_cast<size_t>(bytes));
        return;
    }
    for (int i = 0; i < bytes; ++i)
        write8(addr + i, static_cast<uint8_t>(value >> (8 * i)));
}

void
MemoryImage::writeBytes(uint64_t addr, const uint8_t *data, size_t len)
{
    while (len > 0) {
        const uint64_t off = addr % PAGE_BYTES;
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(len, PAGE_BYTES - off));
        std::memcpy(page(addr) + off, data, chunk);
        addr += chunk;
        data += chunk;
        len -= chunk;
    }
}

MemoryImage::MemoryImage(std::vector<DataSegment> segs, bool disjoint)
{
    if (!disjoint) {
        for (const DataSegment &seg : segs)
            writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
        return;
    }
    for (DataSegment &seg : segs) {
        const uint64_t end = seg.base + seg.bytes.size();
        // Whole pages [first, last); the partial pages around them are
        // copied, and may be shared with a neighbouring segment.
        const uint64_t first = (seg.base + PAGE_BYTES - 1) / PAGE_BYTES;
        const uint64_t last = end / PAGE_BYTES;
        if (first >= last) {
            writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
            continue;
        }
        uint8_t *const bytes = seg.bytes.data();
        writeBytes(seg.base, bytes, first * PAGE_BYTES - seg.base);
        for (uint64_t key = first; key < last; ++key)
            pages_.emplace(key, bytes + (key * PAGE_BYTES - seg.base));
        writeBytes(last * PAGE_BYTES, bytes + (last * PAGE_BYTES - seg.base),
                   end - last * PAGE_BYTES);
    }
    adopted_ = std::move(segs);
}

Interpreter::Interpreter(Program prog)
    : prog_(std::move(prog))
{
    const bool disjoint = prog_.segmentsDisjoint();
    mem_ = MemoryImage(prog_.takeDataSegments(), disjoint);
    x_.fill(0);
    f_.fill(0.0);
    x_[REG_SP] = static_cast<int64_t>(STACK_TOP);
    x_[REG_FP] = static_cast<int64_t>(STACK_TOP);
}

size_t
recordReservation(uint64_t maxDynInsts)
{
    return static_cast<size_t>(
        std::min<uint64_t>(maxDynInsts, MAX_RECORD_RESERVATION / 2) * 2);
}

namespace {

/** Sign-extend a loaded value of `bytes` width. */
int64_t
signExtend(uint64_t v, int bytes)
{
    int shift = 64 - 8 * bytes;
    return static_cast<int64_t>(v << shift) >> shift;
}

} // namespace

DynamicTrace
Interpreter::run(const InterpOptions &opts)
{
    const Function &fn = prog_.function();
    const Layout &layout = prog_.layout();

    // Fail fast instead of silently overflowing TraceIdx (int32_t)
    // guardIdx/cursor arithmetic on very long traces. The budget check
    // is conservative: setup instructions inflate the record count past
    // maxDynInsts, so the per-record check below still stands guard.
    // Thrown (not fatal()): the interpreter runs inside sweep worker
    // threads, and a per-workload failure must be isolatable by the
    // batched caller instead of killing the whole sweep (DESIGN.md §13).
    if (opts.maxDynInsts > MAX_TRACE_RECORDS)
        throw SimError(
            "interp.trace_limit",
            strfmt("maxDynInsts %llu exceeds the TraceIdx limit of %llu "
                   "records",
                   static_cast<unsigned long long>(opts.maxDynInsts),
                   static_cast<unsigned long long>(MAX_TRACE_RECORDS)));

    DynamicTrace trace;
    trace.name = prog_.name();
    const size_t reserve = recordReservation(opts.maxDynInsts);
    if (pageMapped(reserve * sizeof(DynRecord)))
        trace.dyn.reserve(reserve);

    // Architectural BIT/DCT replay (Table 1). BIT maps compiler ID to
    // the trace index of the most recent instance of that branch; the
    // DCT holds a single live (guard, counter) pair.
    std::array<TraceIdx, NUM_BRANCH_IDS> bit;
    bit.fill(TRACE_NONE);
    int pendingBranchId = INVALID_BRANCH_ID; // armed by setBranchId
    TraceIdx dctGuard = TRACE_NONE;
    int dctCounter = 0;
    bool dctSensitive = false;
    bool dctStrict = false;

    // Static ids by code site: a fall-through and a redirected slot per
    // instruction slot, for DynamicTrace::push() to reuse.
    std::vector<uint32_t> siteIds(2 * (layout.codeBytes() / INST_BYTES));

    int bb = fn.entry();
    int idx = 0;
    uint64_t executed = 0;

    auto intSrc = [this](Reg r) -> int64_t {
        return r == REG_ZERO ? 0 : x_[r];
    };
    auto fpSrc = [this](Reg r) -> double { return f_[r - FREG_BASE]; };
    auto writeInt = [this](Reg r, int64_t v) {
        if (r > REG_ZERO && r < NUM_INT_REGS)
            x_[r] = v;
    };
    auto writeFp = [this](Reg r, double v) {
        if (r >= FREG_BASE)
            f_[r - FREG_BASE] = v;
    };

    bool running = true;
    while (running) {
        if (executed >= opts.maxDynInsts) {
            trace.truncated = true;
            break;
        }
        panic_if(idx >= static_cast<int>(fn.block(bb).insts.size()),
                 "fell off the end of block %d", bb);
        const Instruction &inst = fn.block(bb).insts[idx];
        const uint64_t pc = layout.pc(bb, idx);

        TraceRecord rec;
        rec.pc = pc;
        rec.op = inst.op;
        rec.rd = inst.rd;
        rec.rs1 = inst.rs1;
        rec.rs2 = inst.rs2;
        rec.rs3 = inst.rs3;

        int nextBb = bb;
        int nextIdx = idx + 1;

        const TraceIdx myIdx = static_cast<TraceIdx>(trace.dyn.size());

        // Table 1: setBranchId arms the BIT for the next (branch)
        // instruction; setDependency snapshots BIT[ID] into the DCT.
        if (inst.op == Opcode::SET_BRANCH_ID) {
            pendingBranchId = setBranchIdId(inst);
            rec.addrOrImm = static_cast<uint64_t>(inst.imm);
        } else if (inst.op == Opcode::SET_DEPENDENCY) {
            int id = setDependencyId(inst);
            dctGuard = bit[id % NUM_BRANCH_IDS];
            dctCounter = setDependencyNum(inst);
            dctSensitive = setDependencySensitive(inst);
            dctStrict = setDependencyStrict(inst);
            rec.addrOrImm = static_cast<uint64_t>(inst.imm);
        } else {
            // A real instruction: consume a DCT slot if armed.
            if (dctCounter > 0) {
                rec.guardIdx = dctGuard;
                rec.orderSensitive = dctSensitive;
                rec.orderStrict = dctStrict;
                --dctCounter;
            }
            if (pendingBranchId != INVALID_BRANCH_ID) {
                bit[pendingBranchId % NUM_BRANCH_IDS] = myIdx;
                pendingBranchId = INVALID_BRANCH_ID;
                rec.markedBranch = true;
            }
        }

        switch (inst.op) {
          case Opcode::ADD:
          case Opcode::SUB:
          case Opcode::AND:
          case Opcode::OR:
          case Opcode::XOR:
          case Opcode::SLL:
          case Opcode::SRL:
          case Opcode::SRA:
          case Opcode::SLT:
          case Opcode::SLTU:
          case Opcode::MUL:
          case Opcode::MULH:
          case Opcode::DIV:
          case Opcode::REM: {
            int64_t a = intSrc(inst.rs1);
            int64_t b = inst.rs2 == REG_NONE ? inst.imm : intSrc(inst.rs2);
            // Overflow wraps as RISC-V does: ADD/SUB/MUL compute in
            // uint64_t, where it is defined, and convert back (modular
            // since C++20); INT64_MIN / -1 yields INT64_MIN, remainder 0.
            const uint64_t ua = static_cast<uint64_t>(a);
            const uint64_t ub = static_cast<uint64_t>(b);
            int64_t r = 0;
            switch (inst.op) {
              case Opcode::ADD: r = static_cast<int64_t>(ua + ub); break;
              case Opcode::SUB: r = static_cast<int64_t>(ua - ub); break;
              case Opcode::AND: r = a & b; break;
              case Opcode::OR: r = a | b; break;
              case Opcode::XOR: r = a ^ b; break;
              case Opcode::SLL: r = a << (b & 63); break;
              case Opcode::SRL:
                r = static_cast<int64_t>(
                    static_cast<uint64_t>(a) >> (b & 63));
                break;
              case Opcode::SRA: r = a >> (b & 63); break;
              case Opcode::SLT: r = a < b; break;
              case Opcode::SLTU:
                r = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
                break;
              case Opcode::MUL: r = static_cast<int64_t>(ua * ub); break;
              case Opcode::MULH:
                r = static_cast<int64_t>(
                    (static_cast<__int128>(a) * b) >> 64);
                break;
              case Opcode::DIV:
                r = b == 0    ? -1
                    : b == -1 ? static_cast<int64_t>(-ua)
                              : a / b;
                break;
              case Opcode::REM:
                r = b == 0 ? a : b == -1 ? 0 : a % b;
                break;
              default: break;
            }
            writeInt(inst.rd, r);
            break;
          }
          case Opcode::LUI:
            writeInt(inst.rd, inst.imm);
            break;
          case Opcode::AUIPC:
            writeInt(inst.rd, static_cast<int64_t>(pc) + inst.imm);
            break;

          case Opcode::LB: case Opcode::LH: case Opcode::LW:
          case Opcode::LD: {
            uint64_t addr =
                static_cast<uint64_t>(intSrc(inst.rs1) + inst.imm);
            int bytes = memAccessSize(inst.op);
            rec.addrOrImm = addr;
            rec.memSize = static_cast<uint8_t>(bytes);
            writeInt(inst.rd, signExtend(mem_.read(addr, bytes), bytes));
            break;
          }
          case Opcode::FLW: case Opcode::FLD: {
            uint64_t addr =
                static_cast<uint64_t>(intSrc(inst.rs1) + inst.imm);
            int bytes = memAccessSize(inst.op);
            rec.addrOrImm = addr;
            rec.memSize = static_cast<uint8_t>(bytes);
            if (inst.op == Opcode::FLD) {
                uint64_t raw = mem_.read(addr, 8);
                double d;
                std::memcpy(&d, &raw, 8);
                writeFp(inst.rd, d);
            } else {
                uint32_t raw = static_cast<uint32_t>(mem_.read(addr, 4));
                float fv;
                std::memcpy(&fv, &raw, 4);
                writeFp(inst.rd, static_cast<double>(fv));
            }
            break;
          }
          case Opcode::SB: case Opcode::SH: case Opcode::SW:
          case Opcode::SD: {
            uint64_t addr =
                static_cast<uint64_t>(intSrc(inst.rs1) + inst.imm);
            int bytes = memAccessSize(inst.op);
            rec.addrOrImm = addr;
            rec.memSize = static_cast<uint8_t>(bytes);
            mem_.write(addr, static_cast<uint64_t>(intSrc(inst.rs2)),
                       bytes);
            break;
          }
          case Opcode::FSW: case Opcode::FSD: {
            uint64_t addr =
                static_cast<uint64_t>(intSrc(inst.rs1) + inst.imm);
            int bytes = memAccessSize(inst.op);
            rec.addrOrImm = addr;
            rec.memSize = static_cast<uint8_t>(bytes);
            if (inst.op == Opcode::FSD) {
                uint64_t raw;
                double d = fpSrc(inst.rs2);
                std::memcpy(&raw, &d, 8);
                mem_.write(addr, raw, 8);
            } else {
                float fv = static_cast<float>(fpSrc(inst.rs2));
                uint32_t raw;
                std::memcpy(&raw, &fv, 4);
                mem_.write(addr, raw, 4);
            }
            break;
          }

          case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
          case Opcode::BGE: case Opcode::BLTU: case Opcode::BGEU: {
            int64_t a = intSrc(inst.rs1), b = intSrc(inst.rs2);
            bool taken = false;
            switch (inst.op) {
              case Opcode::BEQ: taken = a == b; break;
              case Opcode::BNE: taken = a != b; break;
              case Opcode::BLT: taken = a < b; break;
              case Opcode::BGE: taken = a >= b; break;
              case Opcode::BLTU:
                taken = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
                break;
              case Opcode::BGEU:
                taken =
                    static_cast<uint64_t>(a) >= static_cast<uint64_t>(b);
                break;
              default: break;
            }
            rec.taken = taken;
            ++trace.branches;
            if (taken) {
                ++trace.takenBranches;
                nextBb = inst.target;
            } else {
                nextBb = fn.block(bb).fallthrough;
            }
            nextIdx = 0;
            break;
          }
          case Opcode::JAL:
            writeInt(inst.rd, static_cast<int64_t>(pc + INST_BYTES));
            nextBb = inst.target;
            nextIdx = 0;
            break;
          case Opcode::JALR: {
            const auto &targets = fn.block(bb).indirectTargets;
            panic_if(targets.empty(), "jalr without targets in block %d",
                     bb);
            uint64_t sel = static_cast<uint64_t>(intSrc(inst.rs1));
            nextBb = targets[sel % targets.size()];
            nextIdx = 0;
            rec.taken = true;
            ++trace.branches;
            ++trace.takenBranches;
            break;
          }

          case Opcode::FADD:
            writeFp(inst.rd, fpSrc(inst.rs1) + fpSrc(inst.rs2));
            break;
          case Opcode::FSUB:
            writeFp(inst.rd, fpSrc(inst.rs1) - fpSrc(inst.rs2));
            break;
          case Opcode::FMUL:
            writeFp(inst.rd, fpSrc(inst.rs1) * fpSrc(inst.rs2));
            break;
          case Opcode::FDIV:
            writeFp(inst.rd, fpSrc(inst.rs1) / fpSrc(inst.rs2));
            break;
          case Opcode::FSQRT:
            writeFp(inst.rd, std::sqrt(fpSrc(inst.rs1)));
            break;
          case Opcode::FMADD:
            writeFp(inst.rd,
                    fpSrc(inst.rs1) * fpSrc(inst.rs2) + fpSrc(inst.rs3));
            break;
          case Opcode::FMIN:
            writeFp(inst.rd, std::fmin(fpSrc(inst.rs1), fpSrc(inst.rs2)));
            break;
          case Opcode::FMAX:
            writeFp(inst.rd, std::fmax(fpSrc(inst.rs1), fpSrc(inst.rs2)));
            break;
          case Opcode::FCVT_D_L:
            writeFp(inst.rd, static_cast<double>(intSrc(inst.rs1)));
            break;
          case Opcode::FCVT_L_D:
            writeInt(inst.rd, static_cast<int64_t>(fpSrc(inst.rs1)));
            break;
          case Opcode::FEQ:
            writeInt(inst.rd, fpSrc(inst.rs1) == fpSrc(inst.rs2));
            break;
          case Opcode::FLT:
            writeInt(inst.rd, fpSrc(inst.rs1) < fpSrc(inst.rs2));
            break;
          case Opcode::FLE:
            writeInt(inst.rd, fpSrc(inst.rs1) <= fpSrc(inst.rs2));
            break;
          case Opcode::FMV:
            writeFp(inst.rd, fpSrc(inst.rs1));
            break;

          case Opcode::SET_BRANCH_ID:
          case Opcode::SET_DEPENDENCY:
          case Opcode::NOP:
          case Opcode::FENCE:
            break;
          case Opcode::GET_CIT_ENTRY:
            // Architecturally reads 0 outside of trap handling (the CIT
            // is microarchitectural state; see uarch/commit/noreba.h).
            writeInt(inst.rd, 0);
            break;
          case Opcode::SET_CIT_ENTRY:
            break;

          case Opcode::HALT:
            running = false;
            break;

          default:
            panic("unhandled opcode %s", opcodeName(inst.op));
        }

        // Compute nextPc for the record.
        if (running) {
            if (nextIdx >=
                    static_cast<int>(fn.block(nextBb).insts.size()) &&
                nextBb == bb && nextIdx == idx + 1) {
                // Implicit fallthrough off the end of the block.
                nextBb = fn.block(bb).fallthrough;
                nextIdx = 0;
            }
            // Skip empty blocks along the fallthrough chain.
            int hops = 0;
            while (fn.block(nextBb).insts.empty()) {
                nextBb = fn.block(nextBb).fallthrough;
                nextIdx = 0;
                panic_if(++hops >
                             static_cast<int>(fn.numBlocks()),
                         "empty-block fallthrough cycle");
            }
            rec.nextPc = layout.pc(nextBb, nextIdx);
        } else {
            rec.nextPc = pc + INST_BYTES;
        }

        if (trace.dyn.size() >= MAX_TRACE_RECORDS)
            throw SimError(
                "interp.trace_limit",
                strfmt("trace for %s exceeds the TraceIdx limit of "
                       "%llu records", trace.name.c_str(),
                       static_cast<unsigned long long>(
                           MAX_TRACE_RECORDS)));
        trace.push(rec, siteIds[2 * ((pc - CODE_BASE) / INST_BYTES) +
                                (rec.nextPc != pc + INST_BYTES)]);
        if (isSetup(inst.op)) {
            ++trace.setupInsts;
        } else {
            // Setup instructions do not count against the dynamic
            // instruction budget, so annotated and unannotated runs of
            // the same program execute the same architectural work.
            ++trace.dynInsts;
            ++executed;
        }
        if (isLoad(inst.op))
            ++trace.loads;
        if (isStore(inst.op))
            ++trace.stores;

        bb = nextBb;
        idx = nextIdx;
    }

    pageTrimTail(trace.dyn);
    return trace;
}

uint64_t
Interpreter::regChecksum() const
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (int i = 0; i < NUM_INT_REGS; ++i)
        mix(static_cast<uint64_t>(x_[i]));
    for (int i = 0; i < NUM_FP_REGS; ++i) {
        uint64_t raw;
        std::memcpy(&raw, &f_[i], 8);
        mix(raw);
    }
    return h;
}

} // namespace noreba
