#include "support/bytes.h"

#include <stdexcept>

namespace nesgx {

namespace {

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("fromHex: non-hex character");
}

}  // namespace

std::string
toHex(ByteView data)
{
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(data.size() * 2);
    for (std::uint8_t b : data) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

Bytes
fromHex(const std::string& hex)
{
    if (hex.size() % 2 != 0) {
        throw std::invalid_argument("fromHex: odd-length input");
    }
    Bytes out(hex.size() / 2);
    for (size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<std::uint8_t>(
            (hexNibble(hex[2 * i]) << 4) | hexNibble(hex[2 * i + 1]));
    }
    return out;
}

Bytes
bytesOf(const std::string& s)
{
    return Bytes(s.begin(), s.end());
}

bool
constantTimeEqual(ByteView a, ByteView b)
{
    if (a.size() != b.size()) return false;
    std::uint8_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    }
    return acc == 0;
}

void
append(Bytes& out, ByteView data)
{
    out.insert(out.end(), data.begin(), data.end());
}

void
storeLe32(std::uint8_t* p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
storeLe64(std::uint8_t* p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
loadLe32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint64_t
loadLe64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

}  // namespace nesgx
