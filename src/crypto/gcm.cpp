#include "crypto/gcm.h"

#include <array>
#include <cstring>
#include <stdexcept>

namespace nesgx::crypto {

namespace {

/**
 * GCM's right shift by one bit in GF(2^128): the bit shifted out of the
 * low end (the x^127 coefficient) folds back as the polynomial
 * x^128 = 1 + x + x^2 + x^7, i.e. 0xe1 in the top byte.
 */
constexpr void
shiftRight1(std::uint64_t& hi, std::uint64_t& lo)
{
    bool carry = lo & 1;
    lo = (lo >> 1) | (hi << 63);
    hi >>= 1;
    if (carry) hi ^= 0xe100000000000000ull;
}

/**
 * kReduce4[r]: what four right shifts fold into the high word when the
 * low nibble shifted out is r. Derived from the polynomial at compile
 * time; the shifts never carry into the low word.
 */
constexpr auto kReduce4 = [] {
    std::array<std::uint64_t, 16> table{};
    for (std::uint64_t r = 0; r < 16; ++r) {
        std::uint64_t hi = 0, lo = r;
        for (int i = 0; i < 4; ++i) shiftRight1(hi, lo);
        table[r] = hi;
    }
    return table;
}();

}  // namespace

AesGcm::AesGcm(ByteView key) : aes_(key)
{
    std::uint8_t h[16] = {};
    aes_.encryptBlock(h);
    // Entry 8 (nibble 1000b) is H itself; 4, 2 and 1 are H times x, x^2
    // and x^3; the rest are XORs of those by linearity.
    std::uint64_t hi = loadBe64(h);
    std::uint64_t lo = loadBe64(h + 8);
    hTableHi_[0] = hTableLo_[0] = 0;
    for (int i = 8; i > 0; i >>= 1) {
        hTableHi_[i] = hi;
        hTableLo_[i] = lo;
        shiftRight1(hi, lo);
    }
    for (int i = 2; i < 16; i <<= 1) {
        for (int j = 1; j < i; ++j) {
            hTableHi_[i + j] = hTableHi_[i] ^ hTableHi_[j];
            hTableLo_[i + j] = hTableLo_[i] ^ hTableLo_[j];
        }
    }
}

void
AesGcm::mulH(std::uint64_t& hi, std::uint64_t& lo) const
{
    // Horner's rule over the 32 nibbles of y, highest degree (the low
    // end of lo) first: z = z * x^4 + nibble * H.
    std::uint64_t zh = 0, zl = 0;
    for (std::uint64_t word : {lo, hi}) {
        for (int i = 0; i < 16; ++i, word >>= 4) {
            std::uint64_t rem = zl & 0xf;
            zl = (zl >> 4) | (zh << 60);
            zh = (zh >> 4) ^ kReduce4[rem];
            std::uint64_t nibble = word & 0xf;
            zh ^= hTableHi_[nibble];
            zl ^= hTableLo_[nibble];
        }
    }
    hi = zh;
    lo = zl;
}

void
AesGcm::ghash(ByteView aad, ByteView ct, std::uint8_t out[16]) const
{
    std::uint64_t yh = 0, yl = 0;

    auto absorb = [&](ByteView data) {
        std::size_t full = data.size() / 16 * 16;
        for (std::size_t offset = 0; offset < full; offset += 16) {
            yh ^= loadBe64(data.data() + offset);
            yl ^= loadBe64(data.data() + offset + 8);
            mulH(yh, yl);
        }
        if (full < data.size()) {
            std::uint8_t last[16] = {};
            std::memcpy(last, data.data() + full, data.size() - full);
            yh ^= loadBe64(last);
            yl ^= loadBe64(last + 8);
            mulH(yh, yl);
        }
    };

    absorb(aad);
    absorb(ct);

    yh ^= std::uint64_t(aad.size()) * 8;
    yl ^= std::uint64_t(ct.size()) * 8;
    mulH(yh, yl);
    storeBe64(out, yh);
    storeBe64(out + 8, yl);
}

Bytes
AesGcm::seal(ByteView iv, ByteView aad, ByteView plaintext) const
{
    if (iv.size() != kGcmIvSize) {
        throw std::invalid_argument("AesGcm: IV must be 12 bytes");
    }

    AesBlock j0{};
    std::memcpy(j0.data(), iv.data(), 12);
    j0[15] = 1;

    AesBlock ctr = j0;
    for (int i = 15; i >= 12; --i) {
        if (++ctr[i] != 0) break;
    }

    Bytes out(plaintext.size() + kGcmTagSize);
    aesCtrXcrypt(aes_, ctr, plaintext, out.data());

    std::uint8_t s[16];
    ghash(aad, ByteView(out.data(), plaintext.size()), s);

    std::uint8_t ek0[16];
    std::memcpy(ek0, j0.data(), 16);
    aes_.encryptBlock(ek0);
    for (int i = 0; i < 16; ++i) {
        out[plaintext.size() + i] = s[i] ^ ek0[i];
    }
    return out;
}

Result<Bytes>
AesGcm::open(ByteView iv, ByteView aad, ByteView sealed) const
{
    if (iv.size() != kGcmIvSize || sealed.size() < kGcmTagSize) {
        return Err::BadCallBuffer;
    }
    std::size_t ctLen = sealed.size() - kGcmTagSize;

    AesBlock j0{};
    std::memcpy(j0.data(), iv.data(), 12);
    j0[15] = 1;

    std::uint8_t s[16];
    ghash(aad, ByteView(sealed.data(), ctLen), s);

    std::uint8_t ek0[16];
    std::memcpy(ek0, j0.data(), 16);
    aes_.encryptBlock(ek0);
    std::uint8_t tag[16];
    for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ ek0[i];

    if (!constantTimeEqual(ByteView(tag, 16),
                           ByteView(sealed.data() + ctLen, kGcmTagSize))) {
        return Err::ReportMacMismatch;
    }

    AesBlock ctr = j0;
    for (int i = 15; i >= 12; --i) {
        if (++ctr[i] != 0) break;
    }
    Bytes plain(ctLen);
    aesCtrXcrypt(aes_, ctr, ByteView(sealed.data(), ctLen), plain.data());
    return plain;
}

}  // namespace nesgx::crypto
