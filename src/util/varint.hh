/**
 * @file
 * The one LEB128 varint codec: 7 value bits per byte, least
 * significant group first, high bit = continuation. Both binary
 * formats ddsim writes (the ddsim-xtrace-v1 external trace and the
 * pipeline lifecycle trace) encode and decode through these two
 * functions, so one bounds-checked decoder is what the corruption fuzz
 * exercises.
 */

#ifndef DDSIM_UTIL_VARINT_HH_
#define DDSIM_UTIL_VARINT_HH_

#include <cstddef>
#include <cstdint>
#include <ostream>

namespace ddsim {

/** Longest encoding of a 64-bit value. */
constexpr std::size_t kMaxVarintBytes = 10;

/** Append @p v to @p os in its shortest LEB128 encoding. */
inline void
putVarint(std::ostream &os, std::uint64_t v)
{
    char buf[kMaxVarintBytes];
    std::size_t n = 0;
    do {
        char byte = static_cast<char>(v & 0x7f);
        v >>= 7;
        if (v)
            byte |= static_cast<char>(0x80);
        buf[n++] = byte;
    } while (v);
    os.write(buf, static_cast<std::streamsize>(n));
}

/** Outcome of getVarint. */
enum class VarintStatus : std::uint8_t
{
    Ok,
    Truncated, ///< The source ended before the final byte.
    Overflow,  ///< The value does not fit in 64 bits.
};

/**
 * Decode one varint from @p next, a callable returning the next input
 * byte (0..255) or a negative value at end of input. Reads at most
 * kMaxVarintBytes bytes: the tenth byte may carry only bit 63 and no
 * continuation, anything more is Overflow rather than silently
 * dropped high bits. @p v is meaningful only on Ok.
 */
template <class NextByte>
VarintStatus
getVarint(NextByte &&next, std::uint64_t &v)
{
    v = 0;
    for (int shift = 0;; shift += 7) {
        const int c = next();
        if (c < 0)
            return VarintStatus::Truncated;
        const auto bits = static_cast<std::uint64_t>(c & 0x7f);
        if (shift == 63 && (bits > 1 || (c & 0x80)))
            return VarintStatus::Overflow;
        v |= bits << shift;
        if (!(c & 0x80))
            return VarintStatus::Ok;
    }
}

} // namespace ddsim

#endif // DDSIM_UTIL_VARINT_HH_
