/**
 * @file
 * Page-granular storage for the bulk buffers of a cold build: trace
 * records, program data and the interpreter's memory image.
 *
 * glibc's per-thread arenas keep what a build frees: a worker that
 * built a program, ran the interpreter and grew a trace vector holds
 * those pages after the bundle is published, so a process that builds
 * many bundles on several threads keeps climbing in RSS long after its
 * live data stopped growing. Requests of at least PAGE_MAP_THRESHOLD
 * bytes are therefore served by anonymous mmap and returned with
 * munmap, so their pages leave the process on free. Mapped regions are
 * advised MADV_HUGEPAGE: with transparent hugepages in `madvise` mode,
 * 4 KiB first-touch faults would otherwise dominate the cost of filling
 * them.
 *
 * A buffer filled up to a size it cannot know in advance reserves
 * generously (untouched pages cost address space only) and then hands
 * the part past its contents back with pageTrim(), in place.
 *
 * Smaller requests, and every request in an AddressSanitizer build, go
 * to operator new, so ASan still checks the buffers.
 */

#ifndef NOREBA_COMMON_PAGE_ALLOC_H
#define NOREBA_COMMON_PAGE_ALLOC_H

#include <cstddef>
#include <vector>

namespace noreba {

/** Requests of at least this many bytes are mapped (outside ASan). */
constexpr size_t PAGE_MAP_THRESHOLD = size_t{1} << 20;

/**
 * True when a request of @p bytes is mapped: its memory starts zeroed
 * and leaves the process when freed.
 */
bool pageMapped(size_t bytes);

/** Allocate @p bytes (16-byte aligned); throws std::bad_alloc. */
void *pageAllocate(size_t bytes);

/** Free @p p, which pageAllocate(@p bytes) returned. */
void pageFree(void *p, size_t bytes) noexcept;

/**
 * Give the pages of @p p, which pageAllocate(@p bytes) returned, that
 * lie wholly past its first @p used bytes back to the kernel, huge page
 * included. The block stays allocated: a later write past @p used
 * faults in zeroed memory, and pageFree(@p p, @p bytes) still frees it
 * whole. Does nothing to a block that is not mapped.
 */
void pageTrim(void *p, size_t used, size_t bytes) noexcept;

/** A standard allocator over pageAllocate()/pageFree(). */
template <typename T>
struct PageAllocator
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pageAllocate() aligns like operator new");

    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(pageAllocate(n * sizeof(T)));
    }

    void deallocate(T *p, size_t n) noexcept { pageFree(p, n * sizeof(T)); }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A vector whose large buffers are mapped pages. */
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/** pageTrim() the storage of @p v past its elements. */
template <typename T>
void
pageTrimTail(PageVector<T> &v) noexcept
{
    pageTrim(v.data(), v.size() * sizeof(T), v.capacity() * sizeof(T));
}

} // namespace noreba

#endif // NOREBA_COMMON_PAGE_ALLOC_H
