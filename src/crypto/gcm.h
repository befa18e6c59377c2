/**
 * AES-GCM authenticated encryption (NIST SP 800-38D).
 *
 * This is the software-encryption baseline the paper compares against for
 * enclave-to-enclave communication through untrusted memory (§VI-C,
 * Fig. 11): "we use AES-GCM for the protected communication between
 * monolithic enclaves". The same class seals EWB/ELDU pages, client
 * messages, SDK sealed data and migration rewraps.
 *
 * GHASH uses Shoup's 4-bit table: each key precomputes the 16 products
 * i * H, and a block multiply is 32 nibble lookups plus a shared 16-entry
 * reduction table. Those lookups, like the AES T-tables, are indexed by
 * secret-dependent values, so the host kernels are not constant-time.
 * Their speed never reaches a simulated figure: the sim cycles of GCM and
 * paging come from `CostModel` (`gcmMessage`, `ewbPage`, `elduPage`).
 */
#pragma once

#include "crypto/aes.h"
#include "support/bytes.h"
#include "support/status.h"

namespace nesgx::crypto {

constexpr std::size_t kGcmTagSize = 16;
constexpr std::size_t kGcmIvSize = 12;

/** AES-GCM context bound to one key. */
class AesGcm {
  public:
    /** key.size() must be 16 or 32. */
    explicit AesGcm(ByteView key);

    /**
     * Encrypts `plaintext` with the given 12-byte IV and additional data.
     * Output is ciphertext || 16-byte tag.
     */
    Bytes seal(ByteView iv, ByteView aad, ByteView plaintext) const;

    /**
     * Verifies and decrypts ciphertext||tag. Returns the plaintext or a
     * ReportMacMismatch fault when the tag does not verify.
     */
    Result<Bytes> open(ByteView iv, ByteView aad, ByteView sealed) const;

  private:
    void ghash(ByteView aad, ByteView ct, std::uint8_t out[16]) const;
    /** y <- y * H in GF(2^128); (hi, lo) are y's big-endian halves. */
    void mulH(std::uint64_t& hi, std::uint64_t& lo) const;

    Aes aes_;
    // Shoup table of the GHASH subkey H = E(0^128): entry i holds i * H,
    // where nibble i's bit 3 is the lowest-degree coefficient.
    std::uint64_t hTableHi_[16];
    std::uint64_t hTableLo_[16];
};

}  // namespace nesgx::crypto
