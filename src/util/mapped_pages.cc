#include "util/mapped_pages.h"

#include <new>

#include <sys/mman.h>

namespace dynex
{

MappedPages::MappedPages(std::size_t bytes)
{
    void *const map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED)
        throw std::bad_alloc();
    base = static_cast<std::byte *>(map);
    length = bytes;
}

MappedPages::~MappedPages()
{
    if (base)
        ::munmap(base, length);
}

} // namespace dynex
