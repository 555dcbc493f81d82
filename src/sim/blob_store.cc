#include "sim/blob_store.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fs.h"
#include "common/hash.h"
#include "common/logging.h"

namespace noreba {

namespace {

constexpr char MAGIC[8] = {'N', 'O', 'R', 'B', 'B', 'L', 'O', 'B'};

/** Smallest buffer read() reads into: a result file fits in one. */
constexpr size_t READ_CHUNK = 4096;

/**
 * On-disk header. Everything after it is validated against these
 * fields before a single key or payload byte is interpreted.
 */
struct BlobHeader
{
    char magic[8];
    uint32_t formatVersion;
    uint32_t headerBytes;      //!< sizeof(BlobHeader) at write time
    uint64_t versionHash;      //!< hash of the caller's version tuple
    uint64_t keyBytes;         //!< stored key text length
    uint64_t headerChecksum;   //!< FNV over header, this field zeroed
    uint64_t payloadChecksum;  //!< PayloadChecksum over the rest
    uint64_t fileBytes;
};
static_assert(sizeof(BlobHeader) % 8 == 0,
              "key section must stay 8-byte aligned");
static_assert(std::is_trivially_copyable_v<BlobHeader>);

uint64_t
headerChecksumOf(const BlobHeader &h)
{
    BlobHeader copy = h;
    copy.headerChecksum = 0;
    return fnv1a(&copy, sizeof(copy));
}

uint64_t
hashVersions(const char *name, uint32_t format,
             std::initializer_list<uint64_t> versions)
{
    uint64_t h = fnv1a(name, std::strlen(name));
    h = fnv1a(&format, sizeof(format), h);
    return fnv1a(versions.begin(), versions.size() * sizeof(uint64_t), h);
}

} // namespace

BlobStore::BlobStore(const char *name, const char *dirEnv, const char *ext,
                     uint32_t format,
                     std::initializer_list<uint64_t> versions)
    : name_(name), dirEnv_(dirEnv), ext_(ext), format_(format),
      versionHash_(hashVersions(name, format, versions))
{
}

std::string
BlobStore::dir() const
{
    const char *env = std::getenv(dirEnv_);
    return env && *env ? std::string(env) : std::string();
}

std::string
BlobStore::path(const std::string &workload, const std::string &key) const
{
    std::string d = dir();
    if (d.empty())
        return {};
    std::string base;
    for (char c : workload)
        base.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c
                                                                   : '_');
    PayloadChecksum name;
    name.update({reinterpret_cast<const uint8_t *>(&versionHash_),
                 sizeof(versionHash_)});
    name.update({reinterpret_cast<const uint8_t *>(key.data()), key.size()});
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(name.finish()));
    return d + "/" + base + "-" + hex + ".v" + std::to_string(format_) +
           "." + ext_;
}

bool
BlobStore::validate(const uint8_t *file, size_t size,
                    std::span<const uint8_t> &key,
                    std::span<const uint8_t> &payload) const
{
    if (size < sizeof(BlobHeader))
        return false;
    BlobHeader h;
    std::memcpy(&h, file, sizeof(h));
    // Bound keyBytes before doing arithmetic on it so a corrupt header
    // cannot overflow the offset computation.
    if (std::memcmp(h.magic, MAGIC, sizeof(MAGIC)) != 0 ||
        h.headerChecksum != headerChecksumOf(h) ||
        h.formatVersion != format_ ||
        h.headerBytes != sizeof(BlobHeader) ||
        h.versionHash != versionHash_ || h.fileBytes != size ||
        h.keyBytes > size)
        return false;
    const size_t payloadOff =
        pad8(sizeof(BlobHeader) + static_cast<size_t>(h.keyBytes));
    if (payloadOff > size ||
        h.payloadChecksum !=
            payloadChecksum({file + sizeof(BlobHeader),
                             size - sizeof(BlobHeader)}))
        return false;
    key = {file + sizeof(BlobHeader), static_cast<size_t>(h.keyBytes)};
    payload = {file + payloadOff, size - payloadOff};
    return true;
}

BlobStore::Mapping::~Mapping()
{
    if (map_)
        ::munmap(map_, fileBytes_);
}

std::unique_ptr<const BlobStore::Mapping>
BlobStore::map(const std::string &path) const
{
    if (const int err = injected("read")) {
        errno = err;
        return nullptr; // read-back failure == cache miss: rebuild
    }
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
        static_cast<size_t>(st.st_size) < sizeof(BlobHeader)) {
        ::close(fd);
        return nullptr;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return nullptr;

    // From here on the mapping is owned: returning nullptr unmaps it.
    std::unique_ptr<Mapping> m(new Mapping);
    m->map_ = map;
    m->fileBytes_ = size;
    if (!validate(static_cast<const uint8_t *>(map), size, m->key_,
                  m->payload_))
        return nullptr;
    return m;
}

std::span<const uint8_t>
BlobStore::read(const std::string &path, const std::string &key,
                std::vector<uint8_t> &buf) const
{
    if (const int err = injected("read")) {
        errno = err;
        return {}; // read-back failure == cache miss
    }
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return {};
    // Read to end of file without asking its size: a read that stops
    // short of the buffer has met the end, and one that fills it grows
    // the buffer. validate() checks the length the header records, so a
    // short read for any other reason is a miss, never a half-read.
    buf.resize(std::max(buf.capacity(), READ_CHUNK));
    size_t got = 0;
    for (;;) {
        const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<size_t>(n);
        if (got < buf.size())
            break;
        buf.resize(2 * buf.size());
    }
    ::close(fd);

    std::span<const uint8_t> stored, payload;
    if (!validate(buf.data(), got, stored, payload) ||
        stored.size() != key.size() ||
        std::memcmp(stored.data(), key.data(), key.size()) != 0)
        return {};
    return payload;
}

size_t
BlobStore::put(const std::string &path, const std::string &key,
               std::initializer_list<std::span<const uint8_t>> parts)
{
    if (bypassed())
        return 0;

    // Header, key and pad form one small buffer; the parts are
    // checksummed and written from the caller's memory.
    const size_t payloadOff = pad8(sizeof(BlobHeader) + key.size());
    std::vector<uint8_t> head(sizeof(BlobHeader), 0);
    head.insert(head.end(), key.begin(), key.end());
    head.resize(payloadOff, 0);
    PayloadChecksum sum;
    sum.update(std::span<const uint8_t>(head).subspan(sizeof(BlobHeader)));
    size_t fileBytes = payloadOff;
    for (std::span<const uint8_t> part : parts) {
        sum.update(part);
        fileBytes += part.size();
    }

    BlobHeader h{};
    std::memcpy(h.magic, MAGIC, sizeof(MAGIC));
    h.formatVersion = format_;
    h.headerBytes = sizeof(BlobHeader);
    h.versionHash = versionHash_;
    h.keyBytes = key.size();
    h.fileBytes = fileBytes;
    h.payloadChecksum = sum.finish();
    h.headerChecksum = headerChecksumOf(h);
    std::memcpy(head.data(), &h, sizeof(h));

    const size_t slash = path.rfind('/');
    if (slash != std::string::npos && !ensureDir(path.substr(0, slash))) {
        warn("%s: cannot create directory for %s", name_.c_str(),
             path.c_str());
        recordFailure();
        return 0;
    }
    std::vector<std::span<const uint8_t>> pieces{head};
    pieces.insert(pieces.end(), parts.begin(), parts.end());
    if (!publish(path, pieces)) {
        recordFailure();
        return 0;
    }
    streak_.store(0, std::memory_order_relaxed);
    return fileBytes;
}

bool
BlobStore::publish(const std::string &path,
                   std::span<const std::span<const uint8_t>> pieces)
{
    // Unique temp name per writer: concurrent same-key writers each
    // publish a complete file; rename() makes the last one win. A
    // failed publish unlinks its temp file (the rename is the only
    // publication point).
    static std::atomic<uint64_t> seq{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq++);
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        warn("%s: cannot create %s", name_.c_str(), tmp.c_str());
        return false;
    }

    const char *step = "write";
    int err = 0;
    for (std::span<const uint8_t> bytes : pieces) {
        while (!err && !bytes.empty()) {
            if ((err = injected("write")))
                break;
            const ssize_t n = ::write(fd, bytes.data(), bytes.size());
            if (n <= 0)
                err = n < 0 ? errno : EIO;
            else
                bytes = bytes.subspan(static_cast<size_t>(n));
        }
    }
    if (::close(fd) != 0 && !err) {
        step = "close";
        err = errno;
    }
    if (!err) {
        step = "rename";
        err = injected("rename");
        if (!err && ::rename(tmp.c_str(), path.c_str()) != 0)
            err = errno;
    }
    if (!err)
        return true;
    ::unlink(tmp.c_str());
    warn("%s: %s failed for %s: %s", name_.c_str(), step, path.c_str(),
         std::strerror(err));
    return false;
}

void
BlobStore::recordFailure()
{
    // The streak counts consecutive failed publishes, so one failure
    // never degrades the store.
    const int streak = streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= STORE_DEGRADE_STREAK &&
        !bypassed_.exchange(true, std::memory_order_relaxed))
        warn("%s: %d consecutive publish failures; degrading to "
             "cache-bypass mode (simulation continues, nothing more is "
             "written this run)",
             name_.c_str(), streak);
}

int
BlobStore::injected(const char *step) const
{
    return failStep ? failStep(step) : 0;
}

void
BlobStore::resetHealth()
{
    streak_.store(0, std::memory_order_relaxed);
    bypassed_.store(false, std::memory_order_relaxed);
}

} // namespace noreba
