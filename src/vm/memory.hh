/**
 * @file
 * Sparse paged memory for the functional machine. Pages are allocated
 * on first touch and zero-filled, so the 32-bit address space costs
 * only what a program actually uses.
 */

#ifndef DDSIM_VM_MEMORY_HH_
#define DDSIM_VM_MEMORY_HH_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace ddsim::vm {

/** Byte-addressable sparse memory image. */
class SparseMemory
{
  public:
    static constexpr Addr PageBytes = 4096;

    SparseMemory() = default;
    // Copies must not inherit the page cache (its pointers point into
    // the source's pages).
    SparseMemory(const SparseMemory &o) : pages(o.pages) {}
    SparseMemory &
    operator=(const SparseMemory &o)
    {
        pages = o.pages;
        cache.fill(CacheSlot{});
        return *this;
    }

    std::uint8_t readByte(Addr addr) const { return *data(addr); }
    void writeByte(Addr addr, std::uint8_t value) { *data(addr) = value; }

    /** Little-endian word access; requires 4-byte alignment. */
    Word
    readWord(Addr addr) const
    {
        checkAlign(addr, 4);
        Word v;
        std::memcpy(&v, data(addr), 4);
        return v;
    }
    void
    writeWord(Addr addr, Word value)
    {
        checkAlign(addr, 4);
        std::memcpy(data(addr), &value, 4);
    }

    /**
     * 64-bit double access; requires 4-byte alignment. An access that
     * stays within one page is a single 8-byte copy; one that
     * straddles a page boundary goes byte by byte.
     */
    double
    readDouble(Addr addr) const
    {
        checkAlign(addr, 4);
        if (!withinPage(addr, 8)) [[unlikely]]
            return readDoubleSplit(addr);
        double v;
        std::memcpy(&v, data(addr), 8);
        return v;
    }
    void
    writeDouble(Addr addr, double value)
    {
        checkAlign(addr, 4);
        if (!withinPage(addr, 8)) [[unlikely]]
            return writeDoubleSplit(addr, value);
        std::memcpy(data(addr), &value, 8);
    }

    /** Bulk initialization (program loading). */
    void writeBlock(Addr addr, const std::uint8_t *src, std::size_t len);

    /** Number of pages currently allocated (footprint metric). */
    std::size_t pagesAllocated() const { return pages.size(); }

  private:
    using Page = std::vector<std::uint8_t>;
    mutable std::unordered_map<Addr, Page> pages;

    /**
     * Direct-mapped page cache in front of the map: a program's stack,
     * static data and heap pages each keep their own slot, so the map
     * lookup is skipped for nearly every access. Page buffers never
     * move once allocated (the map may rehash, but that moves the
     * vector object, not its heap data), so cached pointers stay
     * valid.
     */
    struct CacheSlot
    {
        Addr base = 1; // Never page-aligned: always misses.
        std::uint8_t *data = nullptr;
    };
    static constexpr unsigned CacheBits = 6;
    mutable std::array<CacheSlot, 1u << CacheBits> cache{};

    /**
     * Slot for the page at @p base: a multiplicative (Fibonacci) hash
     * of the page number, so the low pages of the data, heap and stack
     * regions — equal in their low bits — land in different slots.
     */
    static unsigned
    slotOf(Addr base)
    {
        return static_cast<std::uint32_t>((base / PageBytes) *
                                          0x9e37'79b1u) >>
               (32 - CacheBits);
    }

    static bool
    withinPage(Addr addr, Addr len)
    {
        return (addr & (PageBytes - 1)) <= PageBytes - len;
    }

    /** Byte pointer into the page holding @p addr (allocates it). */
    std::uint8_t *
    data(Addr addr) const
    {
        Addr base = addr & ~(PageBytes - 1);
        const CacheSlot &slot = cache[slotOf(base)];
        if (slot.base == base) [[likely]]
            return slot.data + (addr & (PageBytes - 1));
        return missData(addr);
    }
    std::uint8_t *missData(Addr addr) const;

    void
    checkAlign(Addr addr, Addr align) const
    {
        if (addr % align != 0) [[unlikely]]
            misaligned(addr, align);
    }
    [[noreturn]] static void misaligned(Addr addr, Addr align);

    double readDoubleSplit(Addr addr) const;
    void writeDoubleSplit(Addr addr, double value);
};

} // namespace ddsim::vm

#endif // DDSIM_VM_MEMORY_HH_
