/**
 * The TLB-miss access-validation flow with the nested-enclave extension
 * (paper Fig. 2 for baseline SGX, Fig. 6 for the shaded extra steps).
 *
 * On a TLB miss the page-table entry supplied by the *untrusted* OS is
 * re-validated against the EPCM before it may enter the TLB:
 *
 *   (A) non-enclave mode:  PRM physical target        -> abort
 *   (B) enclave mode, PA in PRM:
 *         EPCM owner == current enclave && VA matches -> insert
 *         else walk the outer chain (nested steps 3-5):
 *           EPCM owner == some outer && VA matches    -> insert
 *           otherwise                                 -> fault
 *   (C) enclave mode, PA not in PRM:
 *         VA inside own ELRANGE                       -> #PF (evicted page)
 *         VA inside an outer's ELRANGE (steps 1-2)    -> #PF (evicted page)
 *         else untrusted page: insert, execute disabled
 */
#include "fault/injector.h"
#include "sgx/machine.h"

namespace nesgx::sgx {

namespace {

bool
permsAllow(const hw::TlbEntry& e, hw::Access a)
{
    switch (a) {
      case hw::Access::Read: return true;
      case hw::Access::Write: return e.writable;
      case hw::Access::Execute: return e.executable;
    }
    return false;
}

}  // namespace

Result<hw::Paddr>
Machine::validateAndFill(hw::CoreId coreId, hw::Vaddr va, hw::Access access)
{
    hw::Core& core = cores_[coreId];
    const std::uint64_t eid = coreEid(coreId);
    charge(costs_.tlbMissWalk);
    bus_.publishLight(trace::EventKind::TlbMiss, coreId, eid, va);

    const auto* pt = static_cast<const hw::PageTable*>(core.pageTable());
    if (!pt) return Err::PageFault;
    auto pte = pt->walk(va);
    if (!pte) return Err::PageFault;
    hw::Paddr pa = pte->paddr;

    hw::TlbEntry tlbEntry;
    tlbEntry.paddr = pa;
    tlbEntry.validatedSecs = core.currentSecs();

    if (!core.inEnclaveMode()) {
        // (A) Non-enclave execution must never reach the PRM.
        if (mem_.inPrm(pa)) {
            bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
            return Err::PageFault;
        }
        tlbEntry.writable = pte->writable;
        tlbEntry.executable = pte->executable;
        if (!permsAllow(tlbEntry, access)) return Err::PageFault;
        core.tlb().insert(va, tlbEntry);
        core.setLastTranslation(hw::pageNumber(va), tlbEntry);
        return pa + hw::pageOffset(va);
    }

    Secs* secs = secsAt(core.currentSecs());
    if (!secs) return Err::PageFault;

    if (mem_.inPrm(pa)) {
        // (B) Enclave mode, EPC physical target.
        const EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(pa));
        if (!entry.valid || entry.blocked || entry.type != PageType::Reg) {
            bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
            return Err::PageFault;
        }

        const Secs* owner = nullptr;
        if (entry.ownerSecs == core.currentSecs()) {
            owner = secs;
        } else {
            // Nested extension, steps (3)-(5): the access is valid when
            // the page belongs to an enclave reachable through this
            // enclave's outer associations (a chain in the default
            // model, a DAG under kAttrMultiOuter). Each visited node
            // costs extra validation time — unless closureCacheCosts
            // prices a memoized closure as one flat lookaside probe.
            bool closureHit = false;
            const auto& closure =
                outerClosure(core.currentSecs(), &closureHit);
            const bool flat = config_.closureCacheCosts && closureHit;
            if (flat) {
                charge(costs_.nestedCheckExtra);
                bus_.publishLight(trace::EventKind::NestedCheck, coreId, eid,
                                  core.currentSecs());
            }
            for (hw::Paddr cur : closure) {
                if (!flat) {
                    charge(costs_.nestedCheckExtra);
                    bus_.publishLight(trace::EventKind::NestedCheck, coreId,
                                      eid, cur);
                }
                if (entry.ownerSecs == cur) {
                    owner = secsAt(cur);
                    break;
                }
            }
        }
        if (!owner) {
            bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
            return Err::PageFault;
        }
        // The EPCM-recorded virtual address must match the mapping the OS
        // supplied (invariants 3 and 4, paper §VII-A).
        if (entry.vaddr != hw::pageBase(va)) {
            bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
            return Err::PageFault;
        }
        tlbEntry.writable = entry.perms.w && pte->writable;
        tlbEntry.executable = entry.perms.x && pte->executable;
        if (!entry.perms.allows(access) || !permsAllow(tlbEntry, access)) {
            bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
            return Err::PageFault;
        }
        core.tlb().insert(va, tlbEntry);
        core.setLastTranslation(hw::pageNumber(va), tlbEntry);
        return pa + hw::pageOffset(va);
    }

    // (C) Enclave mode, non-EPC physical target.
    if (secs->inELRange(va)) {
        // An enclave virtual page backed by ordinary memory means the EPC
        // page was evicted (or the OS lies): page fault either way.
        bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
        return Err::PageFault;
    }
    // Nested steps (1)-(2): same check for every reachable outer ELRANGE
    // (same flat pricing on a closure-cache hit as the EPC branch — the
    // ELRANGE probes still run, they are just covered by one charge).
    bool closureHit = false;
    const auto& closure = outerClosure(core.currentSecs(), &closureHit);
    const bool flat = config_.closureCacheCosts && closureHit;
    if (flat) {
        charge(costs_.nestedCheckExtra);
        bus_.publishLight(trace::EventKind::NestedCheck, coreId, eid,
                          core.currentSecs());
    }
    for (hw::Paddr cur : closure) {
        if (!flat) {
            charge(costs_.nestedCheckExtra);
            bus_.publishLight(trace::EventKind::NestedCheck, coreId, eid, cur);
        }
        const Secs* outer = secsAt(cur);
        if (outer && outer->inELRange(va)) {
            bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
            return Err::PageFault;
        }
    }
    // A translation to unsecure memory from enclave mode: allowed for
    // data, but never executable (paper Fig. 6 bottom-right).
    tlbEntry.writable = pte->writable;
    tlbEntry.executable = false;
    if (access == hw::Access::Execute) {
        bus_.publishLight(trace::EventKind::AccessFault, coreId, eid, va);
        return Err::PageFault;
    }
    core.tlb().insert(va, tlbEntry);
    core.setLastTranslation(hw::pageNumber(va), tlbEntry);
    return pa + hw::pageOffset(va);
}

Result<hw::Paddr>
Machine::translate(hw::CoreId coreId, hw::Vaddr va, hw::Access access)
{
    hw::Core& core = cores_[coreId];

    // L0: the last successful translation, trusted only while the TLB
    // generation proves nothing has been flushed, evicted or replaced
    // since — and only for the same protection context.
    const hw::TranslationCache& last = core.lastTranslation();
    if (last.valid && last.generation == core.tlb().generation()
        && last.vpn == hw::pageNumber(va)
        && last.entry.validatedSecs == core.currentSecs()
        && permsAllow(last.entry, access)) {
        charge(costs_.tlbHit);
        publishTlbHit(coreId, va);
        return last.entry.paddr + hw::pageOffset(va);
    }

    if (const hw::TlbEntry* hit = tlbProbe(core, va)) {
        if (permsAllow(*hit, access)) {
            charge(costs_.tlbHit);
            publishTlbHit(coreId, va);
            core.setLastTranslation(hw::pageNumber(va), *hit);
            return hit->paddr + hw::pageOffset(va);
        }
        // Permission upgrade (e.g. read-validated entry, write access)
        // re-runs the full validation rather than trusting the TLB.
    }
    return validateAndFill(coreId, va, access);
}

Status
Machine::accessRange(hw::CoreId coreId, hw::Vaddr va, std::uint8_t* out,
                     const std::uint8_t* in, std::uint64_t len)
{
    // Spurious-interrupt storm: the running nest AEXes to its bottom TCS
    // and is immediately ERESUMEd, paying the full save/flush/restore and
    // re-running the EENTER-grade frame revalidation before the access
    // proceeds. If the resume is refused (the nest was torn down under
    // us) the access falls through to the normal fault path below.
    if (faultInjector_ && cores_[coreId].inEnclaveMode() &&
        faultFiresSlow(fault::FaultSite::AexStorm, coreId)) {
        const hw::Paddr bottom = cores_[coreId].bottomTcs();
        if (aex(coreId)) (void)eresume(coreId, bottom);
    }

    const hw::Access access = out ? hw::Access::Read : hw::Access::Write;
    hw::Core& core = cores_[coreId];
    std::uint64_t done = 0;
    // Physical base of the previously accessed page, valid while the
    // TLB generation is unchanged — lets a multi-page streaming access
    // reuse its translation register instead of re-translating when the
    // next validated entry maps the physically adjacent frame.
    bool havePrev = false;
    hw::Paddr prevFrame = 0;
    std::uint64_t prevGen = 0;

    while (done < len) {
        hw::Vaddr cur = va + done;
        std::uint64_t inPage =
            std::min<std::uint64_t>(len - done,
                                    hw::kPageSize - hw::pageOffset(cur));
        hw::Paddr pa = 0;
        bool translated = false;
        if (havePrev && hw::pageOffset(cur) == 0
            && prevGen == core.tlb().generation()) {
            const hw::TlbEntry* e = core.tlb().lookup(cur, core.currentSecs());
            if (e && e->paddr == prevFrame + hw::kPageSize
                && permsAllow(*e, access)) {
                charge(costs_.tlbHitContiguous);
                publishTlbHit(coreId, cur);
                pa = e->paddr;
                translated = true;
            }
        }
        if (!translated) {
            auto r = translate(coreId, cur, access);
            if (!r) return r.status();
            pa = r.value() - hw::pageOffset(cur);
        }
        havePrev = true;
        prevFrame = pa;
        prevGen = core.tlb().generation();

        const hw::Paddr target = pa + hw::pageOffset(cur);
        chargeDataPath(target, inPage);
        if (out) {
            mem_.read(target, out + done, inPage);
        } else {
            mem_.write(target, in + done, inPage);
        }
        done += inPage;
    }
    return Status::ok();
}

Status
Machine::read(hw::CoreId coreId, hw::Vaddr va, std::uint8_t* out,
              std::uint64_t len)
{
    return accessRange(coreId, va, out, nullptr, len);
}

Status
Machine::write(hw::CoreId coreId, hw::Vaddr va, const std::uint8_t* in,
               std::uint64_t len)
{
    return accessRange(coreId, va, nullptr, in, len);
}

Status
Machine::fetch(hw::CoreId coreId, hw::Vaddr va)
{
    auto pa = translate(coreId, va, hw::Access::Execute);
    return pa.status();
}

}  // namespace nesgx::sgx
