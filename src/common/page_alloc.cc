#include "common/page_alloc.h"

#include <cstdint>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

namespace noreba {

namespace {

#ifdef __SANITIZE_ADDRESS__
constexpr bool kMaps = false; // ASan checks only operator new's memory
#else
constexpr bool kMaps = true;
#endif

} // namespace

bool
pageMapped(size_t bytes)
{
    return kMaps && bytes >= PAGE_MAP_THRESHOLD;
}

void *
pageAllocate(size_t bytes)
{
    if (!pageMapped(bytes))
        return ::operator new(bytes);
    // mmap and munmap round the length up to whole pages themselves.
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    // Advice only: a kernel without THP support refuses it harmlessly.
    (void)::madvise(p, bytes, MADV_HUGEPAGE);
    return p;
}

void
pageFree(void *p, size_t bytes) noexcept
{
    if (!p)
        return;
    if (!pageMapped(bytes)) {
        ::operator delete(p);
        return;
    }
    ::munmap(p, bytes);
}

void
pageTrim(void *p, size_t used, size_t bytes) noexcept
{
    if (!p || !pageMapped(bytes))
        return;
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t from = (used + page - 1) / page * page;
    const size_t to = (bytes + page - 1) / page * page;
    if (from >= to)
        return;
    void *tail = static_cast<uint8_t *>(p) + from;
    // Out of the huge-page advice first: khugepaged then cannot
    // collapse the kept head's last huge page back to full size.
    (void)::madvise(tail, to - from, MADV_NOHUGEPAGE);
    (void)::madvise(tail, to - from, MADV_DONTNEED);
}

} // namespace noreba
