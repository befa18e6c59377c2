/**
 * The untrusted OS model: physical frame + EPC allocation, process/page
 * table management, the SGX driver facade (the ioctl surface user space
 * talks to), and — because the threat model makes the OS an *active
 * attacker* — explicit hostile primitives the security tests use to mount
 * the attacks of paper §VII (arbitrary remapping, translation games).
 */
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "os/process.h"
#include "sgx/machine.h"
#include "support/status.h"

namespace nesgx::os {

/** Per-enclave bookkeeping the driver keeps (as the Linux driver does). */
struct EnclaveRecord {
    Pid pid = 0;
    hw::Paddr secsPage = 0;
    /** Virtual-to-EPC mapping of the enclave's live pages. */
    std::map<hw::Vaddr, hw::Paddr> pages;
    /** Evicted pages parked in (untrusted) kernel memory. */
    std::map<hw::Vaddr, sgx::EvictedPage> evicted;
    /** Creation order (ticks never tie, so the LRU needs no tie-break). */
    std::uint64_t createSeq = 0;
    /** Last-use tick: bumped by `touchEnclave` (the runtimes call it on
     *  every entry), so victim selection can be genuinely LRU. */
    std::uint64_t lastUseTick = 0;
    /** This enclave's node in the kernel's LRU list. */
    std::list<hw::Paddr>::iterator lruPos;
    /** Pages this enclave has had evicted over its lifetime (stat). */
    std::uint64_t evictCount = 0;
};

class Kernel {
  public:
    explicit Kernel(sgx::Machine& machine);

    sgx::Machine& machine() { return machine_; }

    // --- processes ------------------------------------------------------
    Pid createProcess();
    Process& process(Pid pid);

    /** Points a core's page-table root at the process (context switch). */
    void schedule(hw::CoreId core, Pid pid);

    // --- untrusted memory ------------------------------------------------
    /** Allocates and maps `pages` untrusted pages; returns the base VA. */
    hw::Vaddr mapUntrusted(Pid pid, std::uint64_t pages);

    /** Allocates one untrusted physical frame (no mapping). */
    Result<hw::Paddr> allocFrame();

    // --- SGX driver surface ----------------------------------------------
    /** ECREATE wrapper: allocates an EPC page for the SECS. */
    Result<hw::Paddr> createEnclave(Pid pid, hw::Vaddr base,
                                    std::uint64_t size,
                                    std::uint64_t attributes);

    /**
     * EADD+EEXTEND wrapper: allocates an EPC page, adds it to the enclave
     * at `vaddr`, measures it, and installs the process mapping.
     */
    Status addPage(hw::Paddr secsPage, hw::Vaddr vaddr, sgx::PageType type,
                   sgx::PagePerms perms, ByteView content);

    /** EINIT wrapper. */
    Status initEnclave(hw::Paddr secsPage, const sgx::SigStruct& sig);

    /** NASSO wrapper (kernel-privileged instruction, paper Table I). */
    Status associate(hw::Paddr innerSecs, hw::Paddr outerSecs);

    /** Tears the enclave down (EREMOVE all pages, then the SECS). */
    Status destroyEnclave(hw::Paddr secsPage);

    /**
     * Evicts one enclave page: EBLOCK, ETRACK, IPI shootdown of every
     * tracked core (including inner-enclave threads), then EWB.
     */
    Status evictPage(hw::Paddr secsPage, hw::Vaddr vaddr);

    /** Reloads a previously evicted page into a fresh EPC page. */
    Status reloadPage(hw::Paddr secsPage, hw::Vaddr vaddr);

    const EnclaveRecord* enclaveRecord(hw::Paddr secsPage) const;

    // --- eviction-victim selection ---------------------------------------
    /**
     * Marks an enclave recently used (the SDK runtimes call this on every
     * ecall / nested ecall). Ticks are a kernel-local logical clock, so
     * victim ordering is deterministic across runs.
     */
    void touchEnclave(hw::Paddr secsPage);

    /**
     * SECS PAs of every enclave with at least one resident (non-SECS)
     * page, coldest first. Every create and touch takes a fresh tick and
     * moves the enclave to the hot end of the LRU list, so list order is
     * last-use-tick order and ticks never tie. Fully deterministic.
     */
    std::vector<hw::Paddr> evictionCandidates() const;

    /**
     * Picks the coldest eviction candidate accepted by `eligible`
     * (pass nullptr to accept all), walking the LRU list in place.
     * A nonzero `from` names a live enclave to start the walk at
     * instead of the cold end: a caller that picks repeatedly while
     * nothing is touched or reloaded, and whose refusals never become
     * acceptances, passes its previous victim to skip what it already
     * refused. Publishes an OsVictimPick event and returns the chosen
     * SECS PA, or NotFound if nothing qualifies.
     */
    Result<hw::Paddr> pickEvictVictim(
        const std::function<bool(hw::Paddr)>& eligible = nullptr,
        hw::Paddr from = 0);

    /** Free EPC pages remaining. */
    std::size_t freeEpcPages() const { return epcFreeList_.size(); }

    /** Free-list contents (orderliness-checker accounting oracle). */
    const std::vector<hw::Paddr>& epcFreeList() const { return epcFreeList_; }

    /** All live driver records (orderliness-checker accounting oracle). */
    const std::map<hw::Paddr, EnclaveRecord>& enclaveTable() const
    {
        return enclaves_;
    }

    /**
     * Fault injection for the orderliness checker and error-path tests:
     * the next addPage treats its EEXTEND as failed (one-shot), modelling
     * a transient measurement fault between EADD and EEXTEND.
     */
    void failNextEextend() { failNextEextend_ = true; }

    // --- hostile primitives (threat model: OS is an active attacker) -----
    /** Remaps an arbitrary VA to an arbitrary PA in a victim's tables. */
    void hostileRemap(Pid pid, hw::Vaddr va, hw::Paddr pa, bool writable,
                      bool executable);

    /** Unmaps a victim page (forces a walk miss / fault). */
    void hostileUnmap(Pid pid, hw::Vaddr va);

    /** Reads physical memory directly (cold-boot style probe). */
    Bytes hostileReadPhys(hw::Paddr pa, std::uint64_t len);

  private:
    Result<hw::Paddr> allocEpcPage();
    void freeEpcPage(hw::Paddr pa);
    /** Drops a destroyed enclave's record and its LRU node. */
    void forgetEnclave(std::map<hw::Paddr, EnclaveRecord>::iterator it);

    sgx::Machine& machine_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<hw::Paddr> epcFreeList_;
    hw::Paddr nextFrame_;
    std::map<hw::Paddr, EnclaveRecord> enclaves_;
    /** SECS PAs, coldest (least recently created or touched) first. */
    std::list<hw::Paddr> lru_;
    bool failNextEextend_ = false;
    std::uint64_t useTick_ = 0;       ///< logical LRU clock
    std::uint64_t nextCreateSeq_ = 0; ///< enclave creation counter
};

}  // namespace nesgx::os
