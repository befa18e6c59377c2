/**
 * Byte-buffer helpers shared by the crypto substrate and the SGX model.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace nesgx {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/** Renders a byte view as lowercase hex. */
std::string toHex(ByteView data);

/** Parses lowercase/uppercase hex into bytes; throws on odd/garbage input. */
Bytes fromHex(const std::string& hex);

/** Copies a string's characters into a byte vector. */
Bytes bytesOf(const std::string& s);

/** Constant-time byte comparison (crypto MAC checks). */
bool constantTimeEqual(ByteView a, ByteView b);

/** Appends a view to a byte vector. */
void append(Bytes& out, ByteView data);

/** Little-endian integer store/load helpers. */
void storeLe32(std::uint8_t* p, std::uint32_t v);
void storeLe64(std::uint8_t* p, std::uint64_t v);
std::uint32_t loadLe32(const std::uint8_t* p);
std::uint64_t loadLe64(const std::uint8_t* p);

/**
 * Big-endian integer store/load helpers (hash/crypto formats). Inline:
 * the AES and GHASH kernels call them once per word of every block.
 */
inline void
storeBe32(std::uint8_t* p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

inline void
storeBe64(std::uint8_t* p, std::uint64_t v)
{
    storeBe32(p, static_cast<std::uint32_t>(v >> 32));
    storeBe32(p + 4, static_cast<std::uint32_t>(v));
}

inline std::uint32_t
loadBe32(const std::uint8_t* p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

inline std::uint64_t
loadBe64(const std::uint8_t* p)
{
    return (std::uint64_t(loadBe32(p)) << 32) | loadBe32(p + 4);
}

}  // namespace nesgx
