/**
 * @file
 * MappedPages: one private anonymous memory mapping, owned. Its pages
 * arrive zero-filled and go back to the kernel when it is destroyed,
 * not to a malloc arena that may keep them: the kernel maps each
 * sweep leg's lanes this way, on the pool thread that replays the leg.
 */

#ifndef DYNEX_UTIL_MAPPED_PAGES_H
#define DYNEX_UTIL_MAPPED_PAGES_H

#include <cstddef>
#include <utility>

namespace dynex
{

/** A move-only owner of one anonymous read-write mapping. */
class MappedPages
{
  public:
    /** Owns nothing. */
    MappedPages() = default;

    /**
     * Map @p bytes (> 0) of zero-filled pages.
     * @throws std::bad_alloc when the kernel refuses the mapping, so a
     *         caller reports it as it would a failed allocation.
     */
    explicit MappedPages(std::size_t bytes);

    MappedPages(MappedPages &&other) noexcept
        : base(std::exchange(other.base, nullptr)),
          length(std::exchange(other.length, 0))
    {
    }

    MappedPages &
    operator=(MappedPages other) noexcept
    {
        std::swap(base, other.base);
        std::swap(length, other.length);
        return *this;
    }

    /** Unmaps the pages. */
    ~MappedPages();

    /** The first byte, page-aligned; nullptr when nothing is mapped. */
    std::byte *data() const { return base; }
    std::size_t size() const { return length; }

  private:
    std::byte *base = nullptr;
    std::size_t length = 0;
};

} // namespace dynex

#endif // DYNEX_UTIL_MAPPED_PAGES_H
