/**
 * Enclave Page Cache Map (EPCM).
 *
 * The reverse map from each EPC physical page to (owner enclave, expected
 * virtual address, permissions, type). This is the structure the TLB-miss
 * validation flow consults (paper §II-B); nested enclave leaves it
 * unchanged (paper §IV-D: "the information in EPCM does not change").
 */
#pragma once

#include <vector>

#include "hw/types.h"
#include "sgx/types.h"
#include "support/status.h"

namespace nesgx::sgx {

struct EpcmEntry {
    bool valid = false;
    bool blocked = false;   ///< EBLOCK'ed, pending eviction
    PageType type = PageType::Reg;
    hw::Paddr ownerSecs = 0;  ///< SECS physical address of the owner
    hw::Vaddr vaddr = 0;      ///< enclave-specified virtual address
    PagePerms perms;
};

class Epcm {
  public:
    explicit Epcm(std::uint64_t pageCount) : entries_(pageCount) {}

    EpcmEntry& entry(std::uint64_t pageIndex) { return entries_[pageIndex]; }
    const EpcmEntry& entry(std::uint64_t pageIndex) const
    {
        return entries_[pageIndex];
    }

    std::uint64_t pageCount() const { return entries_.size(); }

    /** Number of valid entries owned by the given SECS. */
    std::uint64_t countOwnedBy(hw::Paddr secsPa) const;

  private:
    std::vector<EpcmEntry> entries_;
};

}  // namespace nesgx::sgx
