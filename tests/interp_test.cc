/**
 * @file
 * Unit tests for the functional interpreter: instruction semantics,
 * trace-record fields, and the architectural BIT/DCT replay of
 * Table 1.
 */

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/page_alloc.h"
#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "isa/setup_encoding.h"
#include "sim/runner.h"
#include "workloads/workloads.h"

namespace noreba {
namespace {

/** Run a single straight-line block and return the interpreter. */
template <typename BuildFn>
Interpreter
runStraight(BuildFn &&build, DynamicTrace *traceOut = nullptr)
{
    static Program prog("t");
    prog = Program("t");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e);
    build(b);
    b.halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();
    if (traceOut)
        *traceOut = std::move(t);
    return interp;
}

TEST(Interp, IntegerAlu)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, 10)
            .li(T1, 3)
            .add(T2, T0, T1)
            .sub(T3, T0, T1)
            .mul(T4, T0, T1)
            .div(T5, T0, T1)
            .rem(T6, T0, T1)
            .slt(S2, T1, T0)
            .xor_(S3, T0, T1)
            .srli(S4, T0, 1)
            .slli(S5, T1, 2);
    });
    EXPECT_EQ(i.intReg(T2), 13);
    EXPECT_EQ(i.intReg(T3), 7);
    EXPECT_EQ(i.intReg(T4), 30);
    EXPECT_EQ(i.intReg(T5), 3);
    EXPECT_EQ(i.intReg(T6), 1);
    EXPECT_EQ(i.intReg(S2), 1);
    EXPECT_EQ(i.intReg(S3), 9);
    EXPECT_EQ(i.intReg(S4), 5);
    EXPECT_EQ(i.intReg(S5), 12);
}

TEST(Interp, DivideByZeroFollowsRiscv)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, 42).li(T1, 0).div(T2, T0, T1).rem(T3, T0, T1);
    });
    EXPECT_EQ(i.intReg(T2), -1); // RISC-V: div by zero -> -1
    EXPECT_EQ(i.intReg(T3), 42); // rem by zero -> dividend
}

TEST(Interp, IntegerOverflowWrapsLikeRiscv)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, INT64_MAX)
            .li(T1, INT64_MIN)
            .li(T2, 1)
            .li(S2, -1)
            .add(T3, T0, T2)
            .sub(T4, T1, T2)
            .addi(T5, T0, 1)
            .mul(T6, T0, T0)
            .div(S3, T1, S2)
            .rem(S4, T1, S2);
    });
    EXPECT_EQ(i.intReg(T3), INT64_MIN); // INT64_MAX + 1
    EXPECT_EQ(i.intReg(T4), INT64_MAX); // INT64_MIN - 1
    EXPECT_EQ(i.intReg(T5), INT64_MIN); // addi wraps too
    EXPECT_EQ(i.intReg(T6), 1);         // (2^63 - 1)^2 mod 2^64
    EXPECT_EQ(i.intReg(S3), INT64_MIN); // RISC-V: overflowing div
    EXPECT_EQ(i.intReg(S4), 0);         // ... and its remainder
}

TEST(Interp, X0IsHardwiredZero)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(ZERO, 99).add(T0, ZERO, ZERO);
    });
    EXPECT_EQ(i.intReg(REG_ZERO), 0);
    EXPECT_EQ(i.intReg(T0), 0);
}

TEST(Interp, LoadStoreRoundTripAndSignExtension)
{
    Program prog("mem");
    uint64_t buf = prog.allocGlobal(64);
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .li(S2, static_cast<int64_t>(buf))
        .li(T0, -2) // 0xfffffffffffffffe
        .sb(T0, S2, 0, 1)
        .lb(T1, S2, 0, 1)   // sign-extended byte: -2
        .sw(T0, S2, 8, 1)
        .lw(T2, S2, 8, 1)   // sign-extended word: -2
        .sd(T0, S2, 16, 1)
        .ld(T3, S2, 16, 1)
        .halt();
    prog.finalize();
    Interpreter interp(prog);
    interp.run();
    EXPECT_EQ(interp.intReg(T1), -2);
    EXPECT_EQ(interp.intReg(T2), -2);
    EXPECT_EQ(interp.intReg(T3), -2);
}

TEST(Interp, FloatingPoint)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, 9)
            .fcvtDL(F0, T0)
            .fsqrt(F1, F0)     // 3.0
            .li(T1, 2)
            .fcvtDL(F2, T1)
            .fmul(F3, F1, F2)  // 6.0
            .fadd(F4, F3, F1)  // 9.0
            .fdiv(F5, F4, F2)  // 4.5
            .fmadd(F6, F1, F2, F5) // 3*2+4.5 = 10.5
            .fcvtLD(T2, F6)
            .flt(T3, F1, F3);
    });
    EXPECT_DOUBLE_EQ(i.fpReg(1), 3.0);
    EXPECT_DOUBLE_EQ(i.fpReg(5), 4.5);
    EXPECT_EQ(i.intReg(T2), 10);
    EXPECT_EQ(i.intReg(T3), 1);
}

TEST(Interp, BranchOutcomesAndTraceFields)
{
    Program prog("br");
    IRBuilder b(prog);
    int e = b.newBlock("e");
    int taken = b.newBlock("taken");
    int after = b.newBlock("after");
    b.at(e).li(T0, 1).beq(T0, T0, taken, after);
    b.at(taken).li(T1, 7).fallthrough(after);
    b.at(after).halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();

    ASSERT_EQ(t.branches, 1u);
    EXPECT_EQ(t.takenBranches, 1u);
    std::optional<TraceRecord> br;
    for (const auto &rec : t)
        if (rec.isCondBr())
            br = rec;
    ASSERT_TRUE(br.has_value());
    EXPECT_TRUE(br->taken);
    EXPECT_EQ(br->nextPc, prog.layout().blockPc(1));
    EXPECT_EQ(interp.intReg(T1), 7);
}

TEST(Interp, JumpTableSelectsByValue)
{
    Program prog("jt");
    IRBuilder b(prog);
    int e = b.newBlock();
    int h0 = b.newBlock();
    int h1 = b.newBlock();
    int h2 = b.newBlock();
    int out = b.newBlock();
    b.at(e).li(T0, 2).jumpTable(T0, {h0, h1, h2});
    b.at(h0).li(T1, 100).jump(out);
    b.at(h1).li(T1, 200).jump(out);
    b.at(h2).li(T1, 300).jump(out);
    b.at(out).halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();
    EXPECT_EQ(interp.intReg(T1), 300);
    // The jump-table record points at the selected handler.
    for (const auto &rec : t) {
        if (rec.op == Opcode::JALR) {
            EXPECT_EQ(rec.nextPc, prog.layout().blockPc(h2));
        }
    }
}

TEST(Interp, MemoryRecordsCarryAddressAndSize)
{
    Program prog("memrec");
    uint64_t buf = prog.allocGlobal(16);
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .li(S2, static_cast<int64_t>(buf))
        .sw(ZERO, S2, 4, 1)
        .halt();
    prog.finalize();
    DynamicTrace t = Interpreter(prog).run();
    std::optional<TraceRecord> sw;
    for (const auto &rec : t)
        if (rec.op == Opcode::SW)
            sw = rec;
    ASSERT_TRUE(sw.has_value());
    EXPECT_EQ(sw->addrOrImm, buf + 4);
    EXPECT_EQ(sw->memSize, 4);
}

TEST(Interp, TruncationStopsAtLimit)
{
    Program prog("inf");
    IRBuilder b(prog);
    int e = b.newBlock();
    int loop = b.newBlock();
    int exit = b.newBlock();
    b.at(e).li(T0, 0).li(T1, 1 << 20).fallthrough(loop);
    b.at(loop).addi(T0, T0, 1).blt(T0, T1, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    Interpreter interp(prog);
    InterpOptions opts;
    opts.maxDynInsts = 1000;
    DynamicTrace t = interp.run(opts);
    EXPECT_TRUE(t.truncated);
    EXPECT_EQ(t.dynInsts, 1000u);
}

TEST(Interp, BitDctReplayMatchesTable1)
{
    // Hand-annotated block: setBranchId 3 / branch / setDependency 2 3.
    Program prog("bitdct");
    IRBuilder b(prog);
    int e = b.newBlock("e");
    int arm = b.newBlock("arm");
    int join = b.newBlock("join");
    b.at(e)
        .li(T0, 1)
        .emit(makeSetBranchId(3))
        .beq(T0, ZERO, join, arm);
    b.at(arm)
        .emit(makeSetDependency(2, 3))
        .addi(T1, T1, 1)
        .addi(T2, T2, 1)
        .addi(T3, T3, 1) // beyond the region: independent
        .jump(join);
    b.at(join).halt();
    prog.finalize();

    DynamicTrace t = Interpreter(prog).run();
    // Find the branch's trace index.
    TraceIdx branchIdx = TRACE_NONE;
    for (size_t i = 0; i < t.size(); ++i)
        if (t[i].isCondBr())
            branchIdx = static_cast<TraceIdx>(i);
    ASSERT_NE(branchIdx, TRACE_NONE);
    EXPECT_TRUE(t[static_cast<size_t>(branchIdx)].markedBranch);

    int guarded = 0, independent = 0;
    for (const auto &rec : t) {
        if (rec.op != Opcode::ADD)
            continue;
        if (rec.guardIdx == branchIdx)
            ++guarded;
        else if (rec.guardIdx == TRACE_NONE)
            ++independent;
    }
    EXPECT_EQ(guarded, 2);     // exactly NUM instructions covered
    EXPECT_EQ(independent, 1); // the third addi is beyond the region
}

TEST(Interp, UnsetBitGivesInvalidDependency)
{
    // setDependency naming an ID whose setBranchId never ran: the
    // covered instructions are marked INVALID (Table 1).
    Program prog("unsetbit");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .emit(makeSetDependency(1, 5))
        .addi(T1, T1, 1)
        .halt();
    prog.finalize();
    DynamicTrace t = Interpreter(prog).run();
    for (const auto &rec : t) {
        if (rec.op == Opcode::ADD) {
            EXPECT_EQ(rec.guardIdx, TRACE_NONE);
        }
    }
}

TEST(Interp, SetupRecordsDoNotCountAsDynInsts)
{
    Program prog("setupcount");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .emit(makeSetBranchId(1))
        .nop()
        .halt();
    prog.finalize();
    DynamicTrace t = Interpreter(prog).run();
    EXPECT_EQ(t.setupInsts, 1u);
    EXPECT_EQ(t.dynInsts, 2u); // nop + halt
    EXPECT_EQ(t.size(), 3u);
}

TEST(Interp, ChecksumIsDeterministic)
{
    Program p1("c1");
    {
        IRBuilder b(p1);
        int e = b.newBlock();
        b.at(e).li(T0, 5).mul(T1, T0, T0).halt();
        p1.finalize();
    }
    Interpreter a(p1), c(p1);
    a.run();
    c.run();
    EXPECT_EQ(a.regChecksum(), c.regChecksum());
}

static_assert(!std::is_copy_constructible_v<Interpreter>,
              "an interpreter's image points into its own storage");

/** @p mem and @p want hold the same bytes over every one of @p segs. */
void
expectSegmentBytes(const MemoryImage &mem, const MemoryImage &want,
                   const std::vector<DataSegment> &segs)
{
    for (const DataSegment &seg : segs)
        for (uint64_t i = 0; i < seg.bytes.size(); i += 8) {
            const int n = static_cast<int>(
                std::min<uint64_t>(8, seg.bytes.size() - i));
            ASSERT_EQ(mem.read(seg.base + i, n), want.read(seg.base + i, n))
                << "segment at " << std::hex << seg.base << " byte " << i;
        }
}

TEST(Interp, AdoptedImageMatchesACopiedOne)
{
    // Each program has three data segments, whose whole pages the
    // image adopts and whose partial end pages it copies.
    for (const char *name : {"astar", "lbm", "soplex", "CRC32"}) {
        SCOPED_TRACE(name);
        Program prog = buildWorkload(name);
        runBranchDependencePass(prog);
        ASSERT_EQ(prog.dataSegments().size(), 3u);
        const std::vector<DataSegment> want = prog.dataSegments();
        MemoryImage loaded;
        for (const DataSegment &seg : want)
            loaded.writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());

        Program spare = prog;
        Interpreter copied(prog);
        Interpreter moved(std::move(spare));
        expectSegmentBytes(copied.memory(), loaded, want);
        expectSegmentBytes(moved.memory(), loaded, want);

        InterpOptions io;
        io.maxDynInsts = 20000;
        const DynamicTrace a = copied.run(io);
        const DynamicTrace b = moved.run(io);
        EXPECT_EQ(a.statics, b.statics);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.dyn.data(), b.dyn.data(),
                              a.size() * sizeof(DynRecord)),
                  0);
        EXPECT_EQ(copied.regChecksum(), moved.regChecksum());
        expectSegmentBytes(moved.memory(), copied.memory(), want);

        // The copied-from program still holds what it was built with.
        ASSERT_EQ(prog.dataSegments().size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(prog.dataSegments()[i].base, want[i].base);
            EXPECT_TRUE(prog.dataSegments()[i].bytes == want[i].bytes)
                << "segment " << i;
        }
    }
}

TEST(MemoryImage, SparsePagesReadBackZeroAndWrites)
{
    MemoryImage mem;
    EXPECT_EQ(mem.read(0x123456, 8), 0u);
    mem.write(0xfff, 0xaabb, 2); // crosses a page boundary
    EXPECT_EQ(mem.read(0xfff, 2), 0xaabbu);
    EXPECT_EQ(mem.read8(0xfff), 0xbb);
    EXPECT_EQ(mem.read8(0x1000), 0xaa);
    EXPECT_GE(mem.numPages(), 2u);
}

TEST(MemoryImage, PageCopiesAndCachedPageAgreeWithByteAccess)
{
    MemoryImage mem;
    std::vector<uint8_t> bytes(3 * MemoryImage::PAGE_BYTES + 100);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i * 7 + 3);
    const uint64_t base = 5 * MemoryImage::PAGE_BYTES - 50; // unaligned
    mem.writeBytes(base, bytes.data(), bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i)
        ASSERT_EQ(mem.read8(base + i), bytes[i]) << "byte " << i;

    // Alternate pages so the last-page cache misses and refills, and
    // straddle a boundary with every access width.
    const uint64_t edge = 6 * MemoryImage::PAGE_BYTES;
    for (int width : {1, 2, 4, 8}) {
        for (uint64_t addr = edge - 8; addr < edge + 1; ++addr) {
            uint64_t want = 0;
            for (int i = 0; i < width; ++i)
                want |= static_cast<uint64_t>(mem.read8(addr + i))
                        << (8 * i);
            EXPECT_EQ(mem.read(addr, width), want) << addr << "/" << width;
            EXPECT_EQ(mem.read(0x900000, 8), 0u);
        }
    }
    mem.write(edge - 3, 0x1122334455667788ull, 8);
    EXPECT_EQ(mem.read(0x900000, 1), 0u);
    EXPECT_EQ(mem.read(edge - 3, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.read8(edge - 3), 0x88);
    EXPECT_EQ(mem.read8(edge + 4), 0x11);
}

TEST(MemoryImage, UnwrittenBytesReadZeroAcrossASlabBoundary)
{
    // Pages come from 2 MiB slabs in first-touch order: touching pages
    // 0..SLAB_PAGES+1 in address order puts the last two in a second
    // slab, which must read zero wherever nothing was written.
    constexpr uint64_t P = MemoryImage::PAGE_BYTES;
    const uint64_t pages = MemoryImage::SLAB_PAGES + 2;
    MemoryImage mem;
    for (uint64_t k = 0; k < pages; ++k)
        mem.write8(k * P + 100, 0xff);
    ASSERT_EQ(mem.numPages(), pages);
    for (uint64_t k = 1; k < pages; ++k) {
        ASSERT_EQ(mem.read(k * P + 200, 8), 0u) << "page " << k;
        ASSERT_EQ(mem.read(k * P - 4, 8), 0u) << "straddling page " << k;
        ASSERT_EQ(mem.read8(k * P + 100), 0xff) << "page " << k;
    }
}

TEST(MemoryImage, WriteBytesSpanningTwoSlabsReadsBack)
{
    // Fill all but one page of the first slab, so an unaligned copy
    // over four pages starts in its last page and ends in the next.
    constexpr uint64_t P = MemoryImage::PAGE_BYTES;
    MemoryImage mem;
    for (uint64_t k = 0; k + 1 < MemoryImage::SLAB_PAGES; ++k)
        mem.read8(0x40000000 + k * P);
    std::vector<uint8_t> bytes(2 * P + 300);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i * 13 + 1);
    const uint64_t base = 0x100000 - 150;
    mem.writeBytes(base, bytes.data(), bytes.size());
    EXPECT_EQ(mem.numPages(), MemoryImage::SLAB_PAGES + 3);
    for (size_t i = 0; i < bytes.size(); ++i)
        ASSERT_EQ(mem.read8(base + i), bytes[i]) << "byte " << i;
    EXPECT_EQ(mem.read8(base - 1), 0);
    EXPECT_EQ(mem.read8(base + bytes.size()), 0);
}

/** @p segs copied into an empty image in order, as writeBytes() does. */
MemoryImage
copiedImage(const std::vector<DataSegment> &segs)
{
    MemoryImage mem;
    for (const DataSegment &seg : segs)
        mem.writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
    return mem;
}

TEST(Interp, AMovedProgramsDataIsItsImage)
{
    // Stores to a whole page land in the segment's own bytes, which the
    // interpreter took over with the program; a store to a partial end
    // page goes to a copy.
    constexpr uint64_t P = MemoryImage::PAGE_BYTES;
    Program prog("adopted");
    const uint64_t base = prog.allocGlobal(P + 40);
    const uint64_t seg = prog.allocGlobal(3 * P);
    ASSERT_NE(seg % P, 0u);
    const uint64_t whole = (seg / P + 1) * P;
    IRBuilder b(prog);
    b.at(b.newBlock())
        .li(S2, static_cast<int64_t>(seg))
        .li(S3, static_cast<int64_t>(whole))
        .li(T0, 0x5a)
        .sb(T0, S2, 0, 1)
        .sb(T0, S3, 8, 1)
        .halt();
    prog.finalize();
    ASSERT_GE(prog.dataSegments().size(), 2u);
    const uint8_t *const bytes = prog.dataSegments()[1].bytes.data();
    ASSERT_EQ(prog.dataSegments()[1].base, seg);
    ASSERT_NE(base, seg);

    // The vector's buffer moves with the program, so `bytes` now
    // points into storage the interpreter owns.
    Interpreter interp(std::move(prog));
    interp.run();
    EXPECT_EQ(interp.memory().read8(seg), 0x5a);
    EXPECT_EQ(interp.memory().read8(whole + 8), 0x5a);
    EXPECT_EQ(bytes[whole + 8 - seg], 0x5a) << "whole page not adopted";
    EXPECT_EQ(bytes[0], 0) << "partial page not copied";
}

TEST(MemoryImage, AdoptingMatchesCopyingAtEveryEdge)
{
    constexpr uint64_t P = MemoryImage::PAGE_BYTES;
    Program prog("edges");
    const uint64_t a = prog.allocGlobal(40);
    const uint64_t b = prog.allocGlobal(100);
    ASSERT_EQ(a / P, (b + 99) / P) << "a and b share one page";
    const uint64_t c = prog.allocGlobal(3 * P + 200);
    ASSERT_NE(c % P, 0u) << "c straddles page boundaries";
    const uint64_t d = prog.allocGlobal(P); // two partial pages
    prog.allocGlobal((d + 2 * P) / P * P - (d + P)); // pad to a page
    const uint64_t e = prog.allocGlobal(2 * P); // whole pages only
    ASSERT_EQ(e % P, 0u);
    for (const DataSegment &seg : prog.dataSegments())
        for (uint64_t i = 0; i < seg.bytes.size(); ++i) {
            const uint8_t v = static_cast<uint8_t>(seg.base + i * 7 + 1);
            prog.pokeBytes(seg.base + i, &v, 1);
        }
    // A poke across e's end makes a segment that overlaps it.
    Program overlapped = prog;
    const uint64_t poke[2] = {0x0102030405060708ull, 0x1112131415161718ull};
    overlapped.pokeBytes(e + 2 * P - 4, poke, sizeof(poke));
    ASSERT_EQ(overlapped.dataSegments().size(),
              prog.dataSegments().size() + 1);
    ASSERT_TRUE(prog.segmentsDisjoint());
    ASSERT_FALSE(overlapped.segmentsDisjoint());

    for (const Program *p : {&prog, &overlapped}) {
        SCOPED_TRACE(p == &prog ? "disjoint" : "overlapping");
        const std::vector<DataSegment> &segs = p->dataSegments();
        MemoryImage adopted(segs, p->segmentsDisjoint());
        MemoryImage copied = copiedImage(segs);
        std::vector<uint64_t> edges;
        for (const DataSegment &seg : segs) {
            const uint64_t end = seg.base + seg.bytes.size();
            edges.push_back(seg.base);
            edges.push_back(end);
            for (uint64_t x = (seg.base / P + 1) * P; x < end; x += P)
                edges.push_back(x);
        }
        uint64_t v = 0x9e3779b97f4a7c15ull;
        for (const uint64_t x : edges)
            for (uint64_t at = x - 9; at <= x + 9; ++at)
                for (const int bytes : {1, 2, 4, 8}) {
                    ASSERT_EQ(adopted.read(at, bytes), copied.read(at, bytes))
                        << "load " << bytes << " at " << std::hex << at;
                    if ((at + bytes) % 3 == 0) {
                        v = v * 6364136223846793005ull + 1;
                        adopted.write(at, v, bytes);
                        copied.write(at, v, bytes);
                    }
                }
        for (uint64_t at = a - P; at < e + 3 * P; ++at)
            ASSERT_EQ(adopted.read8(at), copied.read8(at))
                << "after the stores, at " << std::hex << at;
    }
}

/** A synthetic record stream: eight sites, every flag pattern. */
TraceRecord
syntheticRecord(size_t i)
{
    TraceRecord rec;
    rec.pc = CODE_BASE + (i % 8) * INST_BYTES;
    rec.nextPc = rec.pc + INST_BYTES;
    rec.op = i % 8 == 7 ? Opcode::BNE : Opcode::ADD;
    rec.rd = T0;
    rec.rs1 = T1;
    rec.rs2 = T2;
    rec.taken = i % 16 == 7;
    rec.markedBranch = (i / 3) % 2;
    rec.orderSensitive = (i / 5) % 2;
    rec.orderStrict = (i / 7) % 2;
    rec.guardIdx = static_cast<TraceIdx>(i) - 1;
    rec.addrOrImm = 0x9e3779b97f4a7c15ull * i;
    return rec;
}

DynamicTrace
syntheticTrace(size_t records)
{
    DynamicTrace t;
    uint32_t sites[8] = {};
    for (size_t i = 0; i < records; ++i)
        t.push(syntheticRecord(i), sites[i % 8]);
    return t;
}

TEST(PageStorage, TracePushedPastTheMapThresholdRoundTrips)
{
    const size_t records = 3 * PAGE_MAP_THRESHOLD / sizeof(DynRecord);
    const DynamicTrace t = syntheticTrace(records);
    ASSERT_EQ(t.size(), records);
    EXPECT_GE(t.dyn.capacity() * sizeof(DynRecord), PAGE_MAP_THRESHOLD);
    for (size_t i = 0; i < records; ++i) {
        const TraceRecord want = syntheticRecord(i);
        const TraceRecord got = t[i];
        ASSERT_EQ(got.pc, want.pc) << i;
        ASSERT_EQ(got.nextPc, want.nextPc) << i;
        ASSERT_EQ(got.op, want.op) << i;
        ASSERT_EQ(got.taken, want.taken) << i;
        ASSERT_EQ(got.markedBranch, want.markedBranch) << i;
        ASSERT_EQ(got.orderSensitive, want.orderSensitive) << i;
        ASSERT_EQ(got.orderStrict, want.orderStrict) << i;
        ASSERT_EQ(got.guardIdx, want.guardIdx) << i;
        ASSERT_EQ(got.addrOrImm, want.addrOrImm) << i;
    }
}

/** Resident bytes of this process, from /proc/self/statm. */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(PageStorage, DestroyingATraceGivesItsPagesBack)
{
    constexpr size_t RECORDS = 250000;
    if (!pageMapped(RECORDS * sizeof(DynRecord)))
        GTEST_SKIP() << "operator new storage (AddressSanitizer holds "
                        "freed memory in quarantine)";
    // In a child process, so no other test's heap state can blur the
    // resident-set delta.
    EXPECT_EXIT(
        {
            auto t = std::make_unique<DynamicTrace>(syntheticTrace(RECORDS));
            const uint64_t bytes = t->size() * sizeof(DynRecord);
            const uint64_t before = residentBytes();
            t.reset();
            const uint64_t after = residentBytes();
            const bool ok = before > after &&
                            (before - after) * 10 >= bytes * 9;
            std::fprintf(stderr, "resident %llu -> %llu for %llu bytes\n",
                         static_cast<unsigned long long>(before),
                         static_cast<unsigned long long>(after),
                         static_cast<unsigned long long>(bytes));
            std::exit(ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "resident");
}

/** Resident pages of [@p p, @p p + @p bytes), from mincore(). */
size_t
residentPages(const void *p, size_t bytes)
{
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> in((bytes + page - 1) / page);
    if (::mincore(const_cast<void *>(p), bytes, in.data()) != 0)
        ADD_FAILURE() << "mincore: " << std::strerror(errno);
    size_t n = 0;
    for (const unsigned char c : in)
        n += c & 1;
    return n;
}

TEST(PageStorage, PreparedRecordsKeepNoTail)
{
    constexpr uint64_t INSTS = 250000;
    if (!pageMapped(recordReservation(INSTS) * sizeof(DynRecord)))
        GTEST_SKIP() << "operator new storage";
    // gcc has the largest setup share of the registry; sha almost none.
    for (const char *name : {"gcc", "sha"}) {
        SCOPED_TRACE(name);
        TraceOptions opts;
        opts.maxDynInsts = INSTS;
        const TraceBundle bundle = prepareTrace(name, opts);
        const PageVector<DynRecord> &dyn = bundle.trace.dyn;
        // Written in place: the reservation held every record.
        EXPECT_EQ(dyn.capacity(), recordReservation(INSTS));
        const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
        const size_t used =
            (dyn.size() * sizeof(DynRecord) + page - 1) / page;
        const size_t resident =
            residentPages(dyn.data(), dyn.capacity() * sizeof(DynRecord));
        EXPECT_GE(resident, used);
        EXPECT_LE(resident, used + 1);
    }
}

TEST(PageStorage, RecordsOutgrowingTheReservationBuildIdentically)
{
    // Three setups before every counted instruction: the trace holds
    // four records per counted instruction, twice what a reservation
    // allows for.
    constexpr int TRIPS = 20000;
    Program prog("setup_heavy");
    IRBuilder b(prog);
    const int e = b.newBlock(), loop = b.newBlock(), out = b.newBlock();
    b.at(e).li(T0, 0).fallthrough(loop);
    b.at(loop);
    for (int i = 0; i < 3; ++i)
        b.emit(makeSetDependency(1, 1));
    b.addi(T0, T0, 1);
    for (int i = 0; i < 3; ++i)
        b.emit(makeSetDependency(1, 1));
    b.slti(T1, T0, TRIPS);
    for (int i = 0; i < 3; ++i)
        b.emit(makeSetDependency(1, 1));
    b.bne(T1, ZERO, loop, out);
    b.at(out).halt();
    prog.finalize();

    InterpOptions tight, roomy;
    tight.maxDynInsts = 3 * TRIPS + 10; // HALT comes first
    roomy.maxDynInsts = 4 * tight.maxDynInsts;
    Interpreter a(prog), c(prog);
    const DynamicTrace outgrown = a.run(tight);
    const DynamicTrace held = c.run(roomy);
    EXPECT_GT(outgrown.size(), recordReservation(tight.maxDynInsts));
    EXPECT_LE(held.size(), recordReservation(roomy.maxDynInsts));
    EXPECT_FALSE(outgrown.truncated);
    EXPECT_EQ(outgrown.dynInsts, held.dynInsts);
    EXPECT_EQ(outgrown.setupInsts, held.setupInsts);
    EXPECT_EQ(outgrown.statics, held.statics);
    ASSERT_EQ(outgrown.size(), held.size());
    EXPECT_EQ(std::memcmp(outgrown.dyn.data(), held.dyn.data(),
                          held.size() * sizeof(DynRecord)),
              0);
    EXPECT_EQ(a.regChecksum(), c.regChecksum());
}

TEST(PageStorage, ACapAtTheTraceLimitReservesAFixedCeiling)
{
    Program prog("short");
    IRBuilder b(prog);
    b.at(b.newBlock()).li(T0, 1).addi(T0, T0, 1).halt();
    prog.finalize();
    InterpOptions io;
    io.maxDynInsts = MAX_TRACE_RECORDS;
    const DynamicTrace t = Interpreter(std::move(prog)).run(io);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_FALSE(t.truncated);
    // The cap's records would take 32 GiB; the reservation stays
    // within MAX_RECORD_RESERVATION's 256 MiB of address space.
    EXPECT_LE(t.dyn.capacity(), MAX_RECORD_RESERVATION);
    EXPECT_LE(t.dyn.capacity() * sizeof(DynRecord), size_t{256} << 20);
}

TEST(Program, PokesLandInTheFirstSegmentThatHoldsThem)
{
    Program prog("segs");
    const uint64_t a = prog.allocGlobal(64);
    const uint64_t b = prog.allocGlobal(64);
    for (int i = 0; i < 64; ++i) {
        const uint8_t va = static_cast<uint8_t>(i), vb = 0xff;
        prog.pokeBytes(a + static_cast<uint64_t>(i), &va, 1);
        prog.pokeBytes(b + static_cast<uint64_t>(i), &vb, 1);
    }
    ASSERT_EQ(prog.dataSegments().size(), 2u);
    EXPECT_EQ(prog.dataSegments()[0].bytes[10], 10);
    EXPECT_EQ(prog.dataSegments()[1].bytes[10], 0xff);

    // A poke outside every segment makes a dedicated one; once two
    // segments overlap, pokes into the overlap still go to the first.
    const uint64_t late = b + 64 + 4096;
    const uint64_t one = 1;
    prog.pokeBytes(late, &one, 8);
    const uint64_t overlap = prog.allocGlobal(8192);
    ASSERT_LE(overlap, late);
    const uint8_t v = 0x5a;
    prog.pokeBytes(overlap, &v, 1); // caches the overlapping segment
    prog.pokeBytes(late + 1, &v, 1);
    ASSERT_EQ(prog.dataSegments().size(), 4u);
    EXPECT_EQ(prog.dataSegments()[2].bytes[1], 0x5a);
    EXPECT_EQ(prog.dataSegments()[3].bytes[late + 1 - overlap], 0);

    // The inline fixed-size pokes keep to the same rule.
    prog.pokeBytes(overlap, &v, 1);
    prog.poke32(late + 4, 0x01020304);
    EXPECT_EQ(prog.dataSegments()[2].bytes[4], 0x04);
    EXPECT_EQ(prog.dataSegments()[3].bytes[late + 4 - overlap], 0);
}

/**
 * One loop whose back edge is taken three times and not taken once,
 * around a jump table that alternates between two handlers.
 */
class TraceFormat : public ::testing::Test
{
  protected:
    static constexpr int TRIPS = 4;

    void
    SetUp() override
    {
        IRBuilder b(prog);
        int e = b.newBlock("e");
        loop = b.newBlock("loop");
        h0 = b.newBlock("h0");
        h1 = b.newBlock("h1");
        join = b.newBlock("join");
        out = b.newBlock("out");
        b.at(e).li(T0, 0).fallthrough(loop);
        b.at(loop).andi(T1, T0, 1).jumpTable(T1, {h0, h1});
        b.at(h0).addi(T2, T2, 1).jump(join);
        b.at(h1).addi(T2, T2, 2).jump(join);
        b.at(join)
            .addi(T0, T0, 1)
            .slti(T3, T0, TRIPS)
            .bne(T3, ZERO, loop, out);
        b.at(out).halt();
        prog.finalize();
        trace = Interpreter(prog).run();
    }

    Program prog{"trace_format"};
    int loop = 0, h0 = 0, h1 = 0, join = 0, out = 0;
    DynamicTrace trace;
};

static_assert(sizeof(DynRecord) == 12);

TEST_F(TraceFormat, EachDirectionAndTargetGetsItsOwnStaticEntry)
{
    std::set<uint32_t> branchIds, jalrIds, andiIds;
    std::set<uint64_t> branchPcs, jalrPcs;
    int branch = 0, jalr = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord rec = trace[i];
        const uint32_t id = trace.dyn[i].staticId();
        if (rec.op == Opcode::BNE) {
            const bool back = branch + 1 < TRIPS;
            EXPECT_EQ(rec.taken, back) << "branch " << branch;
            EXPECT_EQ(rec.nextPc,
                      prog.layout().blockPc(back ? loop : out));
            branchIds.insert(id);
            branchPcs.insert(rec.pc);
            ++branch;
        } else if (rec.op == Opcode::JALR) {
            EXPECT_TRUE(rec.taken);
            EXPECT_EQ(rec.nextPc,
                      prog.layout().blockPc(jalr % 2 ? h1 : h0));
            jalrIds.insert(id);
            jalrPcs.insert(rec.pc);
            ++jalr;
        } else if (rec.op == Opcode::AND) {
            andiIds.insert(id);
        }
    }
    EXPECT_EQ(branch, TRIPS);
    EXPECT_EQ(jalr, TRIPS);
    EXPECT_EQ(branchPcs.size(), 1u);
    EXPECT_EQ(jalrPcs.size(), 1u);
    EXPECT_EQ(branchIds.size(), 2u);
    EXPECT_EQ(jalrIds.size(), 2u);
    EXPECT_EQ(andiIds.size(), 1u); // repeats share one entry

    // The table holds each static tuple once.
    for (size_t a = 0; a < trace.statics.size(); ++a)
        for (size_t b = a + 1; b < trace.statics.size(); ++b)
            EXPECT_FALSE(trace.statics[a] == trace.statics[b]);
}

TEST_F(TraceFormat, PushRoundTripsEveryFieldAndFlag)
{
    // Rebuild the trace through push() with every flag pattern and a
    // guard, and read back exactly what went in.
    DynamicTrace copy;
    uint32_t slot = 0;
    std::vector<TraceRecord> in;
    for (size_t i = 0; i < trace.size(); ++i) {
        TraceRecord rec = trace[i];
        rec.markedBranch = i % 2;
        rec.orderSensitive = (i / 2) % 2;
        rec.orderStrict = (i / 4) % 2;
        rec.guardIdx = i > 0 ? static_cast<TraceIdx>(i - 1) : TRACE_NONE;
        rec.addrOrImm = 0xfedcba9876543210ull ^ i;
        in.push_back(rec);
        copy.push(rec, slot);
    }
    ASSERT_EQ(copy.size(), in.size());
    // The override's high half lands in every static entry; the table
    // matches the interpreter's in every other field.
    ASSERT_EQ(copy.statics.size(), trace.statics.size());
    for (size_t s = 0; s < copy.statics.size(); ++s) {
        EXPECT_EQ(copy.statics[s].addrHi, 0xfedcba98u) << s;
        StaticInst same = copy.statics[s];
        same.addrHi = trace.statics[s].addrHi;
        EXPECT_EQ(same, trace.statics[s]) << s;
    }
    size_t i = 0;
    for (const TraceRecord &got : TraceView(copy)) {
        const TraceRecord &want = in[i];
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.nextPc, want.nextPc);
        EXPECT_EQ(got.addrOrImm, want.addrOrImm);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.memSize, want.memSize);
        EXPECT_EQ(got.taken, want.taken);
        EXPECT_EQ(got.markedBranch, want.markedBranch);
        EXPECT_EQ(got.orderSensitive, want.orderSensitive);
        EXPECT_EQ(got.orderStrict, want.orderStrict);
        EXPECT_EQ(got.rd, want.rd);
        EXPECT_EQ(got.rs1, want.rs1);
        EXPECT_EQ(got.rs2, want.rs2);
        EXPECT_EQ(got.rs3, want.rs3);
        EXPECT_EQ(got.guardIdx, want.guardIdx);
        ++i;
    }
    EXPECT_EQ(i, in.size());

    // A table stored without push() is indexed before the next push.
    DynamicTrace seeded;
    seeded.statics = trace.statics;
    uint32_t empty = 0;
    seeded.push(trace[0], empty);
    EXPECT_EQ(seeded.statics, trace.statics);
    EXPECT_EQ(seeded.dyn[0].staticId(), trace.dyn[0].staticId());
}

TEST(TraceFormatSites, CacheMatchesInterningEveryRecord)
{
    // A jump table whose selector T0 & 3 walks h0, h1, h2, h0 (h0 is
    // the fall-through PC, so the redirected slot alternates h1 and
    // h2), and a branch on T0's low bit that flips direction every
    // trip: the interpreter's per-site cache misses on first visits
    // and on every new JALR target.
    Program prog("sites");
    IRBuilder b(prog);
    const int e = b.newBlock("e"), loop = b.newBlock("loop");
    const int h0 = b.newBlock("h0"), h1 = b.newBlock("h1");
    const int h2 = b.newBlock("h2"), join = b.newBlock("join");
    const int odd = b.newBlock("odd"), next = b.newBlock("next");
    const int out = b.newBlock("out");
    b.at(e).li(T0, 0).fallthrough(loop);
    b.at(loop).andi(T1, T0, 3).jumpTable(T1, {h0, h1, h2});
    b.at(h0).addi(T2, T2, 1).jump(join);
    b.at(h1).addi(T2, T2, 2).jump(join);
    b.at(h2).addi(T2, T2, 3).jump(join);
    b.at(join).andi(T4, T0, 1).beq(T4, ZERO, next, odd);
    b.at(odd).addi(T5, T5, 1).fallthrough(next);
    b.at(next)
        .addi(T0, T0, 1)
        .slti(T3, T0, 40)
        .bne(T3, ZERO, loop, out);
    b.at(out).halt();
    prog.finalize();
    runBranchDependencePass(prog);
    const DynamicTrace trace = Interpreter(prog).run();
    ASSERT_GT(trace.setupInsts, 0u);

    // Rebuild the records with each nextPc taken from the pc executed
    // next, which no cached id can have supplied, through the hash
    // index alone (an empty cache per record) and through one cache
    // that every site shares (it misses at every site change and must
    // never reuse a stale id).
    const TraceView view(trace);
    DynamicTrace interned, shared;
    uint32_t slot = 0;
    for (size_t i = 0; i < view.size(); ++i) {
        TraceRecord rec = view[i];
        if (i + 1 < view.size())
            rec.nextPc = view.pcOf(i + 1);
        uint32_t empty = 0;
        interned.push(rec, empty);
        shared.push(rec, slot);
    }
    for (const DynamicTrace *t : {&interned, &shared}) {
        EXPECT_EQ(t->statics, trace.statics);
        ASSERT_EQ(t->dyn.size(), trace.dyn.size());
        for (size_t i = 0; i < trace.dyn.size(); ++i)
            ASSERT_EQ(std::memcmp(&t->dyn[i], &trace.dyn[i],
                                  sizeof(DynRecord)),
                      0)
                << "record " << i;
    }
}

TEST_F(TraceFormat, ViewAccessorsMatchComposedRecords)
{
    const TraceView view(trace);
    for (size_t i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view.pcOf(i), view[i].pc);
        EXPECT_EQ(view.guardOf(i), view[i].guardIdx);
        EXPECT_EQ(view.isBranchSiteAt(i), view[i].isBranchSite());
    }
}

} // namespace
} // namespace noreba
