#include "sim/trace_store.h"

#include <charconv>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"

namespace noreba {

namespace {

/** Fixed-width bundle metadata at the start of the payload. */
struct BundleMeta
{
    uint64_t archChecksum;
    uint64_t numRecords;
    uint64_t numStatics;
    uint64_t workloadBytes;
    uint64_t nameBytes;
    uint64_t passBytes;          //!< PassResult blob length
    /** Section offsets into the payload, each 8-byte aligned. */
    uint64_t staticsOff;
    uint64_t dynOff;
    uint64_t mispOff;
    uint64_t passOff;
    /** TraceSummary, widened to fixed-width fields. */
    uint64_t dynInsts;
    uint64_t setupInsts;
    uint64_t branches;
    uint64_t takenBranches;
    uint64_t loads;
    uint64_t stores;
    uint64_t truncated;
};
static_assert(sizeof(BundleMeta) % 8 == 0,
              "sections after the metadata must stay 8-byte aligned");
static_assert(std::is_trivially_copyable_v<BundleMeta>);

/**
 * Fingerprint of the StaticInst and DynRecord memory layouts (sizes,
 * field offsets, flag bits, endianness tag), part of the store's
 * version tuple, so a bundle written by an ABI-incompatible build is
 * rejected.
 */
uint64_t
traceLayoutFingerprint()
{
    static_assert(std::is_trivially_copyable_v<StaticInst> &&
                      std::is_trivially_copyable_v<DynRecord>,
                  "trace sections must memory-map verbatim");
    // The final constant doubles as an endianness tag: the values are
    // hashed through their native byte representation, so a
    // different-endian (or differently packed) build produces a
    // different fingerprint and its bundles are rejected.
    const uint64_t layout[] = {
        sizeof(StaticInst),
        offsetof(StaticInst, pc),
        offsetof(StaticInst, nextPc),
        offsetof(StaticInst, op),
        offsetof(StaticInst, memSize),
        offsetof(StaticInst, rd),
        offsetof(StaticInst, rs1),
        offsetof(StaticInst, rs2),
        offsetof(StaticInst, rs3),
        offsetof(StaticInst, addrHi),
        sizeof(DynRecord),
        offsetof(DynRecord, idFlags),
        offsetof(DynRecord, guardIdx),
        offsetof(DynRecord, addrLo),
        DYN_FLAG_BITS,
        DYN_TAKEN,
        DYN_MARKED_BRANCH,
        DYN_ORDER_SENSITIVE,
        DYN_ORDER_STRICT,
        sizeof(Opcode),
        sizeof(Reg),
        sizeof(TraceIdx),
        0x0102030405060708ull,
    };
    return fnv1a(layout, sizeof(layout));
}

/** @name PassResult blob (fixed-width, length-prefixed vectors) @{ */

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    uint8_t raw[8];
    std::memcpy(raw, &v, 8);
    out.insert(out.end(), raw, raw + 8);
}

void
putI64(std::vector<uint8_t> &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

struct BlobReader
{
    const uint8_t *data;
    size_t size;
    size_t off = 0;
    bool ok = true;

    uint64_t
    u64()
    {
        if (!ok || size - off < 8) {
            ok = false;
            return 0;
        }
        uint64_t v;
        std::memcpy(&v, data + off, 8);
        off += 8;
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    /** A length prefix that the remaining bytes could actually hold. */
    size_t
    vecLen()
    {
        uint64_t n = u64();
        if (!ok || n > (size - off) / 8) {
            ok = false;
            return 0;
        }
        return static_cast<size_t>(n);
    }
};

/** Append the blob for @p pass to @p blob. */
void
serializePass(const PassResult &pass, std::vector<uint8_t> &blob)
{
    putI64(blob, pass.numMarkedBranches);
    putI64(blob, pass.numRegions);
    putI64(blob, pass.numSetupInsts);
    putU64(blob, pass.instsBefore);
    putU64(blob, pass.instsAfter);
    putI64(blob, pass.numChainMerges);
    putI64(blob, pass.numStrictRegions);
    putU64(blob, pass.guardOfInst.size());
    for (int g : pass.guardOfInst)
        putI64(blob, g);
    putU64(blob, pass.branches.size());
    for (const BranchSite &site : pass.branches) {
        putI64(blob, site.bb);
        putI64(blob, site.instIdx);
        putI64(blob, site.globalIdx);
        putI64(blob, site.compilerId);
        putI64(blob, site.reconvBlock);
        putI64(blob, site.guard);
        putI64(blob, site.numControlDeps);
        putI64(blob, site.numDataDeps);
        putU64(blob, site.controlBlocks.size());
        for (int b : site.controlBlocks)
            putI64(blob, b);
    }
}

bool
deserializePass(const uint8_t *data, size_t size, PassResult &out)
{
    BlobReader r{data, size};
    out = PassResult{};
    out.numMarkedBranches = static_cast<int>(r.i64());
    out.numRegions = static_cast<int>(r.i64());
    out.numSetupInsts = static_cast<int>(r.i64());
    out.instsBefore = static_cast<size_t>(r.u64());
    out.instsAfter = static_cast<size_t>(r.u64());
    out.numChainMerges = static_cast<int>(r.i64());
    out.numStrictRegions = static_cast<int>(r.i64());
    size_t numGuards = r.vecLen();
    out.guardOfInst.reserve(numGuards);
    for (size_t i = 0; r.ok && i < numGuards; ++i)
        out.guardOfInst.push_back(static_cast<int>(r.i64()));
    size_t numBranches = r.vecLen();
    out.branches.reserve(numBranches);
    for (size_t i = 0; r.ok && i < numBranches; ++i) {
        BranchSite site;
        site.bb = static_cast<int>(r.i64());
        site.instIdx = static_cast<int>(r.i64());
        site.globalIdx = static_cast<int>(r.i64());
        site.compilerId = static_cast<int>(r.i64());
        site.reconvBlock = static_cast<int>(r.i64());
        site.guard = static_cast<int>(r.i64());
        site.numControlDeps = static_cast<int>(r.i64());
        site.numDataDeps = static_cast<int>(r.i64());
        size_t numBlocks = r.vecLen();
        site.controlBlocks.reserve(numBlocks);
        for (size_t b = 0; r.ok && b < numBlocks; ++b)
            site.controlBlocks.push_back(static_cast<int>(r.i64()));
        out.branches.push_back(std::move(site));
    }
    return r.ok && r.off == size;
}

/** @} */

} // namespace

BlobStore &
traceStore()
{
    static BlobStore store("trace_store", "NOREBA_TRACE_DIR", "ntb",
                           TRACE_STORE_FORMAT_VERSION,
                           {TRACE_STORE_PASS_FINGERPRINT,
                            traceLayoutFingerprint()});
    return store;
}

std::string
traceKey(const std::string &workload, const TraceOptions &opts)
{
    // Room for resultKey()'s config lines, so a result key is built in
    // one allocation.
    constexpr size_t KEY_RESERVE = 512;
    std::string key;
    key.reserve(KEY_RESERVE + workload.size());
    char num[24];
    auto append = [&](const char *name, uint64_t value, int base) {
        key += name;
        char *end = std::to_chars(num, num + sizeof(num), value, base).ptr;
        if (base == 16) // zero-padded to 16 digits
            key.append(16 - static_cast<size_t>(end - num), '0');
        key.append(num, end);
        key += '\n';
    };
    // The scale double is keyed by its bit pattern, printed as hex, so
    // the key text is exact and locale-independent.
    uint64_t scaleBits;
    std::memcpy(&scaleBits, &opts.params.scale, sizeof(scaleBits));
    key += "workload=";
    key += workload;
    key += '\n';
    append("seed=", opts.params.seed, 10);
    append("scaleBits=", scaleBits, 16);
    append("maxDynInsts=", opts.maxDynInsts, 10);
    append("annotate=", opts.annotate, 10);
    append("stripSetups=", opts.stripSetups, 10);
    return key;
}

std::string
traceBundlePath(const std::string &workload, const TraceOptions &opts)
{
    return traceStore().path(workload, traceKey(workload, opts));
}

TraceView
MappedTraceBundle::view() const
{
    return TraceView(name_, statics_, numStatics_, dyn_, numRecords_,
                     summary_);
}

std::shared_ptr<const MappedTraceBundle>
MappedTraceBundle::open(const std::string &path)
{
    std::unique_ptr<const BlobStore::Mapping> map = traceStore().map(path);
    if (!map)
        return nullptr;
    const uint8_t *base = map->payload().data();
    const size_t size = map->payload().size();
    if (size < sizeof(BundleMeta))
        return nullptr;
    BundleMeta m;
    std::memcpy(&m, base, sizeof(m));

    // Bound every count before doing arithmetic on it so a corrupt
    // payload cannot overflow the section checks below.
    if (m.workloadBytes > size || m.nameBytes > size ||
        m.numStatics > size / sizeof(StaticInst) ||
        m.numRecords > size / sizeof(DynRecord) ||
        m.numRecords > MAX_TRACE_RECORDS || m.passBytes > size)
        return nullptr;
    const size_t numStatics = static_cast<size_t>(m.numStatics);
    const size_t numRecords = static_cast<size_t>(m.numRecords);
    const size_t mispBytes = (numRecords + 7) / 8;

    // Each section is 8-byte aligned, inside the payload and after the
    // one before it; the pass blob runs to the end.
    size_t end = sizeof(BundleMeta) + static_cast<size_t>(m.workloadBytes) +
                 static_cast<size_t>(m.nameBytes);
    auto section = [&](uint64_t off, size_t bytes) {
        if (off % 8 != 0 || off < end || off > size ||
            bytes > size - static_cast<size_t>(off))
            return false;
        end = static_cast<size_t>(off) + bytes;
        return true;
    };
    if (!section(m.staticsOff, numStatics * sizeof(StaticInst)) ||
        !section(m.dynOff, numRecords * sizeof(DynRecord)) ||
        !section(m.mispOff, mispBytes) ||
        !section(m.passOff, static_cast<size_t>(m.passBytes)) ||
        end != size)
        return nullptr;

    std::shared_ptr<MappedTraceBundle> b(new MappedTraceBundle);
    if (!deserializePass(base + m.passOff, static_cast<size_t>(m.passBytes),
                         b->pass_))
        return nullptr;

    // Every record must name a static entry and an older guard; the
    // consumers index by both without checking.
    const auto *dyn = reinterpret_cast<const DynRecord *>(base + m.dynOff);
    const uint8_t *bitmap = base + m.mispOff;
    b->misp_.assign(numRecords, 0);
    for (size_t i = 0; i < numRecords; ++i) {
        if (dyn[i].staticId() >= numStatics || dyn[i].guardIdx < TRACE_NONE ||
            dyn[i].guardIdx >= static_cast<TraceIdx>(i))
            return nullptr;
        b->misp_[i] = (bitmap[i / 8] >> (i % 8)) & 1;
    }

    const char *text = reinterpret_cast<const char *>(base);
    b->key_.assign(reinterpret_cast<const char *>(map->key().data()),
                   map->key().size());
    b->workload_.assign(text + sizeof(BundleMeta),
                        static_cast<size_t>(m.workloadBytes));
    b->name_.assign(text + sizeof(BundleMeta) + m.workloadBytes,
                    static_cast<size_t>(m.nameBytes));
    b->statics_ = reinterpret_cast<const StaticInst *>(base + m.staticsOff);
    b->numStatics_ = numStatics;
    b->dyn_ = dyn;
    b->numRecords_ = numRecords;
    b->summary_.dynInsts = m.dynInsts;
    b->summary_.setupInsts = m.setupInsts;
    b->summary_.branches = m.branches;
    b->summary_.takenBranches = m.takenBranches;
    b->summary_.loads = m.loads;
    b->summary_.stores = m.stores;
    b->summary_.truncated = m.truncated != 0;
    b->archChecksum_ = m.archChecksum;
    b->map_ = std::move(map);
    return b;
}

size_t
saveTraceBundle(const std::string &path, const TraceBundle &bundle)
{
    const TraceView view = bundle.view();
    const std::vector<uint8_t> &misp = bundle.mispredictions();
    panic_if(misp.size() != view.size(),
             "bundle misprediction vector does not match its trace");
    const std::string &workload = bundle.workload;
    const std::string &name = view.name();
    const size_t numStatics = view.numStatics();
    const size_t numRecords = view.size();
    const size_t staticBytes = numStatics * sizeof(StaticInst);
    const size_t dynBytes = numRecords * sizeof(DynRecord);
    const size_t mispBytes = (numRecords + 7) / 8;

    BundleMeta m{};
    m.archChecksum = bundle.checksum;
    m.numRecords = numRecords;
    m.numStatics = numStatics;
    m.workloadBytes = workload.size();
    m.nameBytes = name.size();
    m.staticsOff = pad8(sizeof(BundleMeta) + workload.size() + name.size());
    m.dynOff = m.staticsOff + staticBytes;
    m.mispOff = pad8(m.dynOff + dynBytes);
    m.passOff = pad8(m.mispOff + mispBytes);
    const TraceSummary &sum = view.summary();
    m.dynInsts = sum.dynInsts;
    m.setupInsts = sum.setupInsts;
    m.branches = sum.branches;
    m.takenBranches = sum.takenBranches;
    m.loads = sum.loads;
    m.stores = sum.stores;
    m.truncated = sum.truncated ? 1 : 0;

    // Padding, the misprediction bitmap, padding, then the pass blob.
    const size_t tailOff = m.dynOff + dynBytes;
    std::vector<uint8_t> tail(m.passOff - tailOff, 0);
    uint8_t *bitmap = tail.data() + (m.mispOff - tailOff);
    for (size_t i = 0; i < numRecords; ++i)
        if (misp[i])
            bitmap[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    serializePass(bundle.pass, tail);
    m.passBytes = tail.size() - (m.passOff - tailOff);

    // Metadata and names, padded so the static table stays aligned.
    std::vector<uint8_t> head(m.staticsOff, 0);
    std::memcpy(head.data(), &m, sizeof(m));
    std::memcpy(head.data() + sizeof(m), workload.data(), workload.size());
    std::memcpy(head.data() + sizeof(m) + workload.size(), name.data(),
                name.size());

    return traceStore().put(
        path, traceKey(workload, bundle.opts),
        {head,
         {reinterpret_cast<const uint8_t *>(view.statics()), staticBytes},
         {reinterpret_cast<const uint8_t *>(view.dyn()), dynBytes},
         tail});
}

} // namespace noreba
