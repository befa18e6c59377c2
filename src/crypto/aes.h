/**
 * AES-128/256 block cipher (encryption only) and AES-CTR mode (FIPS 197 /
 * SP 800-38A).
 *
 * The block cipher backs AES-GCM: the AES-GCM channel baseline (paper
 * §VI-C), EWB/ELDU page sealing, and client/SDK sealing. The memory
 * encryption engine is not built on it: the MEE is modeled by cycle cost
 * only (`CostModel::meeLine`) and `src/hw` runs no cryptography.
 *
 * Encryption is table-driven: four 256-entry T-tables that fold SubBytes,
 * ShiftRows and MixColumns into lookups on 32-bit column words. The
 * lookups are indexed by key- and data-dependent bytes, so the kernel is
 * not constant-time. Host speed never reaches a simulated figure: sim
 * cycles for crypto come from `CostModel`, not from how fast this code
 * runs.
 */
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace nesgx::crypto {

constexpr std::size_t kAesBlockSize = 16;

using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

/** Expanded-key AES context supporting 128- and 256-bit keys. */
class Aes {
  public:
    /** key.size() must be 16 or 32. */
    explicit Aes(ByteView key);

    /** Encrypts one 16-byte block in place. */
    void encryptBlock(std::uint8_t* block) const;

    int rounds() const { return rounds_; }

  private:
    void expandKey(ByteView key);

    std::uint32_t roundKeys_[60];
    int rounds_;
};

/**
 * AES-CTR keystream application: out[i] = in[i] ^ E(counter_block(i)).
 * Encrypt and decrypt are the same operation.
 */
void aesCtrXcrypt(const Aes& aes, const AesBlock& iv, ByteView in,
                  std::uint8_t* out);

}  // namespace nesgx::crypto
