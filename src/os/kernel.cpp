#include "os/kernel.h"

#include <stdexcept>

#include "fault/injector.h"

namespace nesgx::os {

namespace {

/** OS-layer span/marker events: only built when somebody listens. */
inline void
publishOs(sgx::Machine& machine, trace::EventKind kind, std::uint64_t arg0,
          std::uint64_t arg1 = 0, const char* text = nullptr)
{
    trace::TraceBus& bus = machine.trace();
    if (!bus.active()) return;
    trace::TraceEvent event;
    event.kind = kind;
    event.arg0 = arg0;
    event.arg1 = arg1;
    event.text = text;
    bus.publish(event);
}

}  // namespace

Kernel::Kernel(sgx::Machine& machine) : machine_(machine)
{
    // All EPC pages start free; hand them out from the low end.
    auto& mem = machine_.mem();
    epcFreeList_.reserve(mem.epcPageCount());
    for (std::uint64_t i = mem.epcPageCount(); i-- > 0;) {
        epcFreeList_.push_back(mem.epcPageAddr(i));
    }
    // Untrusted frames: skip frame 0 (null-page tripwire).
    nextFrame_ = hw::kPageSize;
}

Pid
Kernel::createProcess()
{
    Pid pid = Pid(processes_.size());
    processes_.push_back(std::make_unique<Process>(pid));
    return pid;
}

Process&
Kernel::process(Pid pid)
{
    return *processes_.at(pid);
}

void
Kernel::schedule(hw::CoreId core, Pid pid)
{
    publishOs(machine_, trace::EventKind::OsSchedule, core, pid);
    machine_.core(core).setPageTable(&process(pid).pageTable());
    // A context switch flushes the core's TLB.
    machine_.flushCoreTlb(core);
}

Result<hw::Paddr>
Kernel::allocFrame()
{
    auto& mem = machine_.mem();
    // Bump allocation, hopping over the PRM window.
    while (true) {
        if (nextFrame_ + hw::kPageSize > mem.size()) return Err::OsError;
        if (mem.inPrm(nextFrame_)) {
            nextFrame_ = mem.prmBase() + mem.prmSize();
            continue;
        }
        hw::Paddr out = nextFrame_;
        nextFrame_ += hw::kPageSize;
        return out;
    }
}

hw::Vaddr
Kernel::mapUntrusted(Pid pid, std::uint64_t pages)
{
    Process& proc = process(pid);
    hw::Vaddr base = proc.reserveUntrusted(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        auto frame = allocFrame();
        frame.orThrow("mapUntrusted");
        proc.pageTable().map(base + i * hw::kPageSize, frame.value());
    }
    return base;
}

Result<hw::Paddr>
Kernel::allocEpcPage()
{
    // Injected allocation failure: the driver's allocator refuses even
    // though frames may be free — ECREATE/EADD/ELDU callers must cope
    // (createEnclave, addPage, reloadPage all unwind through here).
    if (machine_.faultFires(fault::FaultSite::EpcAllocFail)) {
        return Err::OsError;
    }
    if (epcFreeList_.empty()) return Err::OsError;
    hw::Paddr pa = epcFreeList_.back();
    epcFreeList_.pop_back();
    return pa;
}

void
Kernel::freeEpcPage(hw::Paddr pa)
{
    epcFreeList_.push_back(pa);
}

Result<hw::Paddr>
Kernel::createEnclave(Pid pid, hw::Vaddr base, std::uint64_t size,
                      std::uint64_t attributes)
{
    auto secsPage = allocEpcPage();
    if (!secsPage) return secsPage.status();
    Status st = machine_.ecreate(secsPage.value(), base, size, attributes);
    if (!st) {
        freeEpcPage(secsPage.value());
        return st;
    }
    EnclaveRecord rec;
    rec.pid = pid;
    rec.secsPage = secsPage.value();
    rec.createSeq = nextCreateSeq_++;
    rec.lastUseTick = ++useTick_;
    rec.lruPos = lru_.insert(lru_.end(), secsPage.value());
    enclaves_[secsPage.value()] = std::move(rec);
    return secsPage.value();
}

Status
Kernel::addPage(hw::Paddr secsPage, hw::Vaddr vaddr, sgx::PageType type,
                sgx::PagePerms perms, ByteView content)
{
    auto it = enclaves_.find(secsPage);
    if (it == enclaves_.end()) return Err::OsError;

    auto epcPage = allocEpcPage();
    if (!epcPage) return epcPage.status();
    Status st = machine_.eadd(secsPage, epcPage.value(), vaddr, type, perms,
                              content);
    if (!st) {
        freeEpcPage(epcPage.value());
        return st;
    }
    if (failNextEextend_) {
        failNextEextend_ = false;
        st = Err::InvalidEpcPage;
    } else {
        st = machine_.eextend(secsPage, epcPage.value());
    }
    if (!st) {
#ifndef NESGX_BUG_ADDPAGE_LEAK
        // EADD already gave the page a valid EPCM entry: it must be
        // EREMOVE'd and returned to the free pool, or the frame leaks.
        (void)machine_.eremove(epcPage.value());
        freeEpcPage(epcPage.value());
#endif
        return st;
    }

    it->second.pages[vaddr] = epcPage.value();
    // Install the user mapping: the enclave VA points at the EPC frame.
    process(it->second.pid).pageTable().map(vaddr, epcPage.value());
    return Status::ok();
}

Status
Kernel::initEnclave(hw::Paddr secsPage, const sgx::SigStruct& sig)
{
    return machine_.einit(secsPage, sig);
}

Status
Kernel::associate(hw::Paddr innerSecs, hw::Paddr outerSecs)
{
    auto innerIt = enclaves_.find(innerSecs);
    auto outerIt = enclaves_.find(outerSecs);
    if (innerIt == enclaves_.end() || outerIt == enclaves_.end()) {
        return Err::OsError;
    }
    // Nested association only holds within one address space (§IV-A).
    if (innerIt->second.pid != outerIt->second.pid) return Err::OsError;
    return machine_.nasso(innerSecs, outerSecs);
}

Status
Kernel::destroyEnclave(hw::Paddr secsPage)
{
    auto it = enclaves_.find(secsPage);
    if (it == enclaves_.end()) return Err::OsError;
    publishOs(machine_, trace::EventKind::OsDestroyBegin, secsPage);

    Process& proc = process(it->second.pid);
#ifdef NESGX_BUG_DESTROY_EARLY_RETURN
    for (auto& [va, pa] : it->second.pages) {
        Status bst = machine_.eremove(pa);
        if (!bst) return bst;
        proc.pageTable().unmap(va);
        freeEpcPage(pa);
    }
    it->second.pages.clear();
    Status bst = machine_.eremove(secsPage);
    if (!bst) {
        publishOs(machine_, trace::EventKind::OsDestroyEnd, secsPage);
        return bst;
    }
    freeEpcPage(secsPage);
    forgetEnclave(it);
    publishOs(machine_, trace::EventKind::OsDestroyEnd, secsPage);
    return Status::ok();
#endif
    Status firstError = Status::ok();

    // Per-page teardown continues past individual failures so one bad
    // page can never strand the rest of the enclave's EPC: an early
    // return here used to leave already-freed pages in the record, where
    // a retry would EREMOVE frames that had since been handed to another
    // enclave. A page whose EREMOVE reports InvalidEpcPage is already
    // gone from the EPCM (e.g. evicted behind the driver's back) — the
    // frame is reclaimed; a page that is genuinely still in use stays in
    // the record so a later retry can finish the job.
    for (auto pit = it->second.pages.begin();
         pit != it->second.pages.end();) {
        Status st = machine_.eremove(pit->second);
        if (st.isOk() || st.code() == Err::InvalidEpcPage) {
            if (!st && firstError.isOk()) firstError = st;
            proc.pageTable().unmap(pit->first);
            freeEpcPage(pit->second);
            pit = it->second.pages.erase(pit);
        } else {
            if (firstError.isOk()) firstError = st;
            ++pit;
        }
    }

    // Evicted pages hold no EPC, but their (not-present) mappings and
    // untrusted blobs die with the enclave.
    for (const auto& [va, blob] : it->second.evicted) {
        proc.pageTable().unmap(va);
    }
    it->second.evicted.clear();

    if (!it->second.pages.empty()) {
        publishOs(machine_, trace::EventKind::OsDestroyEnd, secsPage);
        return firstError.isOk() ? Status(Err::PageInUse) : firstError;
    }
    Status st = machine_.eremove(secsPage);
    if (!st) {
        publishOs(machine_, trace::EventKind::OsDestroyEnd, secsPage);
        return firstError.isOk() ? st : firstError;
    }
    freeEpcPage(secsPage);
    forgetEnclave(it);
    publishOs(machine_, trace::EventKind::OsDestroyEnd, secsPage);
    return firstError;
}

void
Kernel::forgetEnclave(std::map<hw::Paddr, EnclaveRecord>::iterator it)
{
    lru_.erase(it->second.lruPos);
    enclaves_.erase(it);
}

Status
Kernel::evictPage(hw::Paddr secsPage, hw::Vaddr vaddr)
{
    auto it = enclaves_.find(secsPage);
    if (it == enclaves_.end()) return Err::OsError;
    auto pageIt = it->second.pages.find(vaddr);
    if (pageIt == it->second.pages.end()) return Err::OsError;
    hw::Paddr epcPage = pageIt->second;
    publishOs(machine_, trace::EventKind::OsEvictBegin, secsPage, vaddr);

    // The eviction protocol of §IV-E: block new translations, snapshot
    // the threads that may cache old ones, shoot them down, then write
    // back. The shootdown includes inner-enclave threads via the
    // machine's extended tracking.
    Status st = machine_.eblock(epcPage);
    if (!st) {
        publishOs(machine_, trace::EventKind::OsEvictEnd, secsPage, vaddr);
        return st;
    }
    st = machine_.etrack(secsPage);
    if (!st) {
        publishOs(machine_, trace::EventKind::OsEvictEnd, secsPage, vaddr);
        return st;
    }
    machine_.ipiShootdown(secsPage);

    auto blob = machine_.ewb(epcPage);
    if (!blob) {
        publishOs(machine_, trace::EventKind::OsEvictEnd, secsPage, vaddr);
        return blob.status();
    }

    it->second.evicted[vaddr] = std::move(blob.value());
    it->second.pages.erase(pageIt);
    ++it->second.evictCount;
    process(it->second.pid).pageTable().setPresent(vaddr, false);
    freeEpcPage(epcPage);
    publishOs(machine_, trace::EventKind::OsEvictEnd, secsPage, vaddr);
    return Status::ok();
}

Status
Kernel::reloadPage(hw::Paddr secsPage, hw::Vaddr vaddr)
{
    auto it = enclaves_.find(secsPage);
    if (it == enclaves_.end()) return Err::OsError;
    auto blobIt = it->second.evicted.find(vaddr);
    if (blobIt == it->second.evicted.end()) return Err::OsError;
    publishOs(machine_, trace::EventKind::OsReloadBegin, secsPage, vaddr);

    auto epcPage = allocEpcPage();
    if (!epcPage) {
        publishOs(machine_, trace::EventKind::OsReloadEnd, secsPage, vaddr);
        return epcPage.status();
    }
    Status st = machine_.eldu(epcPage.value(), secsPage, blobIt->second);
    if (!st) {
        freeEpcPage(epcPage.value());
        publishOs(machine_, trace::EventKind::OsReloadEnd, secsPage, vaddr);
        return st;
    }
    it->second.pages[vaddr] = epcPage.value();
    it->second.evicted.erase(blobIt);
    process(it->second.pid).pageTable().map(vaddr, epcPage.value());
    publishOs(machine_, trace::EventKind::OsReloadEnd, secsPage, vaddr);
    return Status::ok();
}

const EnclaveRecord*
Kernel::enclaveRecord(hw::Paddr secsPage) const
{
    auto it = enclaves_.find(secsPage);
    return it == enclaves_.end() ? nullptr : &it->second;
}

void
Kernel::touchEnclave(hw::Paddr secsPage)
{
    auto it = enclaves_.find(secsPage);
    if (it == enclaves_.end()) return;
    it->second.lastUseTick = ++useTick_;
    lru_.splice(lru_.end(), lru_, it->second.lruPos);
}

std::vector<hw::Paddr>
Kernel::evictionCandidates() const
{
    std::vector<hw::Paddr> out;
    for (hw::Paddr secs : lru_) {
        if (!enclaves_.at(secs).pages.empty()) out.push_back(secs);
    }
    return out;
}

Result<hw::Paddr>
Kernel::pickEvictVictim(const std::function<bool(hw::Paddr)>& eligible,
                        hw::Paddr from)
{
    auto pos = lru_.begin();
    if (from != 0) pos = enclaves_.at(from).lruPos;
    for (; pos != lru_.end(); ++pos) {
        const EnclaveRecord& rec = enclaves_.at(*pos);
        if (rec.pages.empty()) continue;
        if (eligible && !eligible(*pos)) continue;
        machine_.trace().publishLight(trace::EventKind::OsVictimPick,
                                      trace::kNoCore, 0, *pos,
                                      rec.lastUseTick);
        return *pos;
    }
    return Err::NotFound;
}

void
Kernel::hostileRemap(Pid pid, hw::Vaddr va, hw::Paddr pa, bool writable,
                     bool executable)
{
    process(pid).pageTable().map(va, pa, writable, executable);
}

void
Kernel::hostileUnmap(Pid pid, hw::Vaddr va)
{
    process(pid).pageTable().unmap(va);
}

Bytes
Kernel::hostileReadPhys(hw::Paddr pa, std::uint64_t len)
{
    Bytes out(len);
    machine_.mem().read(pa, out.data(), len);
    return out;
}

}  // namespace nesgx::os
