#include "switchless/engine.h"

#include "fault/injector.h"
#include "hw/types.h"
#include "support/bytes.h"

namespace nesgx::switchless {

namespace {

/** Pops until this call's own descriptor surfaces; older ids are
 *  orphans of failed pumps that were already covered by a fallback —
 *  draining them here just recycles their slots. */
Result<Desc>
popFor(sgx::Machine& m, DescRing& ring, hw::CoreId core, std::uint64_t id)
{
    for (;;) {
        auto d = ring.tryPop(m, core);
        if (!d) return d.status();
        if (d.value().id == id) return d;
        if (d.value().id > id) return Err::Unavailable;
    }
}

/** SDK ocall bracket events for the relay path (mirrors the runtime's
 *  publisher; the name is borrowed for the synchronous publish). */
inline void
publishOcall(sgx::Machine& m, trace::EventKind kind, hw::CoreId core,
             const char* name)
{
    trace::TraceBus& bus = m.trace();
    if (!bus.active()) return;
    trace::TraceEvent event;
    event.kind = kind;
    event.core = core;
    event.text = name;
    bus.publish(event);
}

}  // namespace

SwitchlessEngine::SwitchlessEngine(sdk::Urts& urts, Config config)
    : urts_(urts), config_(config)
{
}

SwitchlessEngine::~SwitchlessEngine()
{
    disarmAll();
}

sgx::Machine&
SwitchlessEngine::machine()
{
    return urts_.machine();
}

std::uint64_t
SwitchlessEngine::now()
{
    return machine().clock().cycles();
}

bool
SwitchlessEngine::takeCore(hw::CoreId& out)
{
    if (!coresInit_) {
        nextHighCore_ = machine().coreCount();
        coresInit_ = true;
    }
    if (!freeCores_.empty()) {
        out = freeCores_.back();
        freeCores_.pop_back();
        return true;
    }
    // Poller cores come off the top of the core space so host workers
    // (cores [0, hostCores)) are never starved.
    if (nextHighCore_ <= config_.hostCores) return false;
    out = --nextHighCore_;
    return true;
}

void
SwitchlessEngine::releaseCore(hw::CoreId core)
{
    freeCores_.push_back(core);
}

bool
SwitchlessEngine::armGateway(sdk::LoadedEnclave* outer)
{
    if (gateways_.count(outer) != 0) return true;

    GatewayChannel gw;
    gw.outer = outer;

    sgx::Machine& m = machine();
    os::Kernel& kernel = urts_.kernel();

    // Tier-1 plumbing lives in host-shared untrusted memory: two rings
    // plus the request/response staging buffer.
    const std::uint64_t ringBytes = DescRing::bytesFor(config_.ringCapacity);
    const std::uint64_t ringPages =
        (ringBytes + hw::kPageSize - 1) / hw::kPageSize;
    const std::uint64_t stagingPages =
        (config_.hostStagingBytes + hw::kPageSize - 1) / hw::kPageSize;
    hw::Vaddr base =
        kernel.mapUntrusted(urts_.pid(), 2 * ringPages + stagingPages);
    if (base == 0) return false;

    if (!takeCore(gw.pollerCore)) return false;
    kernel.schedule(gw.pollerCore, urts_.pid());

    // The host side initialises host-memory rings from outside.
    hw::CoreId host = 0;
    if (!gw.req.init(m, host, base, config_.ringCapacity)) {
        releaseCore(gw.pollerCore);
        return false;
    }
    if (!gw.resp.init(m, host, base + ringPages * hw::kPageSize,
                      config_.ringCapacity)) {
        releaseCore(gw.pollerCore);
        return false;
    }
    gw.stagingVa = base + 2 * ringPages * hw::kPageSize;

    // Park the gateway poller: ONE classic EENTER, after which it
    // services the rings from inside the outer for as long as traffic
    // keeps flowing.
    auto tcs = urts_.idleTcs(*outer);
    if (!tcs) {
        releaseCore(gw.pollerCore);
        return false;
    }
    kernel.touchEnclave(outer->secsPage());
    if (!m.eenter(gw.pollerCore, tcs.value())) {
        releaseCore(gw.pollerCore);
        return false;
    }
    gw.parkTcs = tcs.value();
    gw.parked = true;
    gw.lastActive = now();
    ++stats_.armings;
    gateways_[outer] = gw;
    return true;
}

bool
SwitchlessEngine::armMid(const std::vector<sdk::LoadedEnclave*>& prefix)
{
    sdk::LoadedEnclave* self = prefix.back();
    if (mids_.count(self) != 0) return true;
    sdk::LoadedEnclave* parent = prefix[prefix.size() - 2];

    MidChannel mid;
    mid.parent = parent;
    mid.self = self;

    sgx::Machine& m = machine();
    os::Kernel& kernel = urts_.kernel();

    if (!takeCore(mid.pollerCore)) return false;
    kernel.schedule(mid.pollerCore, urts_.pid());

    // This hop's plumbing lives in its *parent's trusted heap*: writable
    // by the parent's poller (its own enclave) and readable/writable by
    // this hop's poller through the outer-closure walk.
    const std::uint64_t ringBytes = DescRing::bytesFor(config_.ringCapacity);
    mid.ringReqVa = parent->heap().alloc(ringBytes);
    mid.ringRespVa = parent->heap().alloc(ringBytes);
    mid.stagingVa = parent->heap().alloc(config_.gwStagingBytes);
    auto freeHeap = [&] {
        if (mid.stagingVa) parent->heap().free(mid.stagingVa);
        if (mid.ringRespVa) parent->heap().free(mid.ringRespVa);
        if (mid.ringReqVa) parent->heap().free(mid.ringReqVa);
        releaseCore(mid.pollerCore);
    };
    if (mid.ringReqVa == 0 || mid.ringRespVa == 0 || mid.stagingVa == 0) {
        freeHeap();
        return false;
    }
    auto unwind = [&] {
        while (m.core(mid.pollerCore).depth() >= 2) {
            if (!m.neexit(mid.pollerCore)) break;
        }
        if (m.core(mid.pollerCore).inEnclaveMode()) {
            (void)m.eexit(mid.pollerCore);
        }
    };

    // Park the mid poller at its chain depth: EENTER the root, NEENTER
    // every deeper link, initialising the rings from the parent hop
    // (heap rings must be initialised from enclave mode).
    auto rootTcs = urts_.idleTcs(*prefix.front());
    if (!rootTcs) {
        freeHeap();
        return false;
    }
    kernel.touchEnclave(prefix.front()->secsPage());
    if (!m.eenter(mid.pollerCore, rootTcs.value())) {
        freeHeap();
        return false;
    }
    mid.parkTcses.push_back(rootTcs.value());

    const std::uint64_t eid = parent->secsPage();
    for (std::size_t i = 1; i < prefix.size(); ++i) {
        if (prefix[i - 1] == parent) {
            if (!mid.req.init(m, mid.pollerCore, mid.ringReqVa,
                              config_.ringCapacity, eid) ||
                !mid.resp.init(m, mid.pollerCore, mid.ringRespVa,
                               config_.ringCapacity, eid)) {
                unwind();
                freeHeap();
                return false;
            }
        }
        auto tcs = urts_.idleTcs(*prefix[i]);
        if (!tcs) {
            unwind();
            freeHeap();
            return false;
        }
        kernel.touchEnclave(prefix[i]->secsPage());
        if (!m.neenter(mid.pollerCore, tcs.value())) {
            unwind();
            freeHeap();
            return false;
        }
        mid.parkTcses.push_back(tcs.value());
    }
    mid.parked = true;
    mid.lastActive = now();
    ++stats_.armings;
    mids_[self] = mid;
    return true;
}

bool
SwitchlessEngine::armTenant(std::uint64_t key, const Endpoint& ep)
{
    const std::vector<sdk::LoadedEnclave*> chain = ep.canonicalChain();
    if (chain.size() < 2 || chain.front() == nullptr) return false;
    if (!armGateway(chain.front())) return false;
    // One relay hop per link between root and leaf (none for the
    // classic depth-2 shape).
    for (std::size_t i = 1; i + 1 < chain.size(); ++i) {
        if (!armMid(std::vector<sdk::LoadedEnclave*>(
                chain.begin(), chain.begin() + long(i) + 1))) {
            return false;
        }
    }
    GatewayChannel& gw = gateways_[chain.front()];

    TenantChannel ch;
    ch.outer = chain.front();
    ch.inner = chain.back();
    ch.ringHost = chain[chain.size() - 2];
    ch.chain = chain;

    sgx::Machine& m = machine();
    os::Kernel& kernel = urts_.kernel();

    if (!takeCore(ch.pollerCore)) return false;
    kernel.schedule(ch.pollerCore, urts_.pid());

    // Leaf plumbing lives in the *leaf parent's trusted heap*: writable
    // by that hop's poller (its own enclave) and readable/writable by
    // the leaf poller through the outer-closure walk.
    const std::uint64_t ringBytes = DescRing::bytesFor(config_.ringCapacity);
    ch.ringReqVa = ch.ringHost->heap().alloc(ringBytes);
    ch.ringRespVa = ch.ringHost->heap().alloc(ringBytes);
    ch.stagingVa = ch.ringHost->heap().alloc(config_.gwStagingBytes);
    auto freeHeap = [&] {
        if (ch.stagingVa) ch.ringHost->heap().free(ch.stagingVa);
        if (ch.ringRespVa) ch.ringHost->heap().free(ch.ringRespVa);
        if (ch.ringReqVa) ch.ringHost->heap().free(ch.ringReqVa);
        releaseCore(ch.pollerCore);
    };
    if (ch.ringReqVa == 0 || ch.ringRespVa == 0 || ch.stagingVa == 0) {
        freeHeap();
        return false;
    }
    auto unwind = [&] {
        while (m.core(ch.pollerCore).depth() >= 2) {
            if (!m.neexit(ch.pollerCore)) break;
        }
        if (m.core(ch.pollerCore).inEnclaveMode()) {
            (void)m.eexit(ch.pollerCore);
        }
    };

    // Enter the chain root first, then NEENTER every deeper link down
    // to the leaf; the leaf rings are initialised while the core sits
    // in the leaf's parent (heap rings must be initialised from enclave
    // mode).
    auto rootTcs = urts_.idleTcs(*chain.front());
    if (!rootTcs) {
        freeHeap();
        return false;
    }
    kernel.touchEnclave(chain.front()->secsPage());
    if (!m.eenter(ch.pollerCore, rootTcs.value())) {
        freeHeap();
        return false;
    }
    ch.parkTcses.push_back(rootTcs.value());

    const std::uint64_t eid = ch.ringHost->secsPage();
    for (std::size_t i = 1; i < chain.size(); ++i) {
        if (chain[i - 1] == ch.ringHost) {
            if (!ch.req.init(m, ch.pollerCore, ch.ringReqVa,
                             config_.ringCapacity, eid) ||
                !ch.resp.init(m, ch.pollerCore, ch.ringRespVa,
                              config_.ringCapacity, eid)) {
                unwind();
                freeHeap();
                return false;
            }
        }
        auto tcs = urts_.idleTcs(*chain[i]);
        if (!tcs) {
            unwind();
            freeHeap();
            return false;
        }
        kernel.touchEnclave(chain[i]->secsPage());
        if (!m.neenter(ch.pollerCore, tcs.value())) {
            unwind();
            freeHeap();
            return false;
        }
        ch.parkTcses.push_back(tcs.value());
    }
    ch.parked = true;
    ch.lastActive = now();
    ++stats_.armings;
    ++gw.tenants;
    for (std::size_t i = 1; i + 1 < chain.size(); ++i) {
        ++mids_[chain[i]].users;
    }
    tenants_[key] = ch;
    return true;
}

bool
SwitchlessEngine::ready(std::uint64_t key, const Endpoint& ep)
{
    if (!config_.enabled) return false;
    if (ep.outer == nullptr || ep.inner == nullptr) return false;
    auto it = tenants_.find(key);
    if (it != tenants_.end()) {
        // A rebuilt enclave comes back as a different LoadedEnclave;
        // any pointer mismatch along the chain means a channel poller
        // is parked in a dead enclave — tear it down and re-arm fresh.
        if (it->second.chain != ep.canonicalChain()) {
            disarm(key);
        } else {
            return true;
        }
    }
    return armTenant(key, ep);
}

bool
SwitchlessEngine::resumeGateway(GatewayChannel& gw)
{
    sgx::Machine& m = machine();
    if (m.core(gw.pollerCore).inEnclaveMode()) return true;
    // The poller took an AEX (IPI shootdown, storm): the whole nest is
    // saved in the bottom TCS — ERESUME puts it back.
    return bool(m.eresume(gw.pollerCore, gw.parkTcs));
}

bool
SwitchlessEngine::resumeTenant(TenantChannel& ch)
{
    sgx::Machine& m = machine();
    if (m.core(ch.pollerCore).inEnclaveMode()) return true;
    if (ch.parkTcses.empty()) return false;
    // The whole nest was saved in the bottom (chain-root) TCS.
    return bool(m.eresume(ch.pollerCore, ch.parkTcses.front()));
}

bool
SwitchlessEngine::resumeMid(MidChannel& mid)
{
    sgx::Machine& m = machine();
    if (m.core(mid.pollerCore).inEnclaveMode()) return true;
    if (mid.parkTcses.empty()) return false;
    return bool(m.eresume(mid.pollerCore, mid.parkTcses.front()));
}

void
SwitchlessEngine::unparkGateway(GatewayChannel& gw)
{
    sgx::Machine& m = machine();
    if (!gw.parked) return;
    if (!m.core(gw.pollerCore).inEnclaveMode()) {
        // AEX'd poller: resume first so the exit path is the clean one;
        // when even that fails the enclave is gone and the frames died
        // with it.
        if (!m.eresume(gw.pollerCore, gw.parkTcs)) {
            gw.parked = false;
            releaseCore(gw.pollerCore);
            return;
        }
    }
    (void)m.eexit(gw.pollerCore);
    gw.parked = false;
    releaseCore(gw.pollerCore);
}

void
SwitchlessEngine::unparkTenant(TenantChannel& ch)
{
    sgx::Machine& m = machine();
    if (!ch.parked) return;
    if (!m.core(ch.pollerCore).inEnclaveMode()) {
        if (ch.parkTcses.empty() ||
            !m.eresume(ch.pollerCore, ch.parkTcses.front())) {
            ch.parked = false;
            releaseCore(ch.pollerCore);
            return;
        }
    }
    // Symmetric unwind: one NEEXIT per chain hop below the root, then
    // the EEXIT out.
    while (m.core(ch.pollerCore).depth() >= 2) {
        if (!m.neexit(ch.pollerCore)) break;
    }
    (void)m.eexit(ch.pollerCore);
    ch.parked = false;
    releaseCore(ch.pollerCore);
}

void
SwitchlessEngine::unparkMid(MidChannel& mid)
{
    sgx::Machine& m = machine();
    if (!mid.parked) return;
    if (!m.core(mid.pollerCore).inEnclaveMode()) {
        if (mid.parkTcses.empty() ||
            !m.eresume(mid.pollerCore, mid.parkTcses.front())) {
            mid.parked = false;
            releaseCore(mid.pollerCore);
            return;
        }
    }
    while (m.core(mid.pollerCore).depth() >= 2) {
        if (!m.neexit(mid.pollerCore)) break;
    }
    (void)m.eexit(mid.pollerCore);
    mid.parked = false;
    releaseCore(mid.pollerCore);
}

void
SwitchlessEngine::disarm(std::uint64_t key)
{
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return;
    TenantChannel& ch = it->second;

    sgx::Machine& m = machine();
    // Never silently drop in-flight entries. The tier-2 rings live in
    // the outer's heap, so draining them needs an enclave-mode core:
    // the parked tenant poller when it is still viable, else the
    // trace-only poison marker (the backing enclave is dead and the
    // caller's completion machinery re-issues through the classic path).
    bool drained = false;
    if (ch.parked && resumeTenant(ch)) {
        if (ch.req.bound()) (void)ch.req.abandon(m, ch.pollerCore);
        if (ch.resp.bound()) (void)ch.resp.abandon(m, ch.pollerCore);
        drained = true;
    }
    unparkTenant(ch);
    if (!drained) {
        if (ch.req.bound()) ch.req.markAbandoned(m);
        if (ch.resp.bound()) ch.resp.markAbandoned(m);
    }
    if (ch.stagingVa) ch.ringHost->heap().free(ch.stagingVa);
    if (ch.ringRespVa) ch.ringHost->heap().free(ch.ringRespVa);
    if (ch.ringReqVa) ch.ringHost->heap().free(ch.ringReqVa);

    // Release the intermediate hops this chain rode, deepest first
    // (their rings live in their parents' heaps). A hop disarms only
    // when its last rider leaves.
    if (ch.chain.size() >= 3) {
        for (std::size_t i = ch.chain.size() - 2; i >= 1; --i) {
            auto midIt = mids_.find(ch.chain[i]);
            if (midIt != mids_.end()) {
                if (midIt->second.users > 0) --midIt->second.users;
                if (midIt->second.users == 0) disarmMid(ch.chain[i]);
            }
            if (i == 1) break;
        }
    }

    auto gwIt = gateways_.find(ch.outer);
    if (gwIt != gateways_.end() && gwIt->second.tenants > 0) {
        --gwIt->second.tenants;
    }
    tenants_.erase(it);
}

void
SwitchlessEngine::disarmMid(sdk::LoadedEnclave* self)
{
    auto it = mids_.find(self);
    if (it == mids_.end()) return;
    MidChannel& mid = it->second;
    sgx::Machine& m = machine();
    bool drained = false;
    if (mid.parked && resumeMid(mid)) {
        if (mid.req.bound()) (void)mid.req.abandon(m, mid.pollerCore);
        if (mid.resp.bound()) (void)mid.resp.abandon(m, mid.pollerCore);
        drained = true;
    }
    unparkMid(mid);
    if (!drained) {
        if (mid.req.bound()) mid.req.markAbandoned(m);
        if (mid.resp.bound()) mid.resp.markAbandoned(m);
    }
    if (mid.stagingVa) mid.parent->heap().free(mid.stagingVa);
    if (mid.ringRespVa) mid.parent->heap().free(mid.ringRespVa);
    if (mid.ringReqVa) mid.parent->heap().free(mid.ringReqVa);
    mids_.erase(it);
}

void
SwitchlessEngine::disarmGateway(GatewayChannel& gw)
{
    sgx::Machine& m = machine();
    if (gw.req.bound()) (void)gw.req.abandon(m, 0);
    if (gw.resp.bound()) (void)gw.resp.abandon(m, 0);
    unparkGateway(gw);
}

void
SwitchlessEngine::disarmAll()
{
    // Leaves first, then any surviving mid hops, then the roots: each
    // layer's rings live one layer up.
    while (!tenants_.empty()) disarm(tenants_.begin()->first);
    while (!mids_.empty()) disarmMid(mids_.begin()->first);
    for (auto& [outer, gw] : gateways_) disarmGateway(gw);
    gateways_.clear();
    for (auto& [root, oc] : ocallChannels_) {
        if (oc.req.bound()) (void)oc.req.abandon(machine(), 0);
        if (oc.resp.bound()) (void)oc.resp.abandon(machine(), 0);
    }
    ocallChannels_.clear();
}

ChannelProgress
SwitchlessEngine::channelProgress(std::uint64_t key) const
{
    ChannelProgress out;
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return out;
    out.armed = true;
    out.wedged = it->second.wedged;
    out.lastActive = it->second.lastActive;
    return out;
}

void
SwitchlessEngine::idleCheck(std::uint64_t key, TenantChannel& ch)
{
    (void)key;
    const std::uint64_t t = now();
    // A poller whose rings stayed empty past the threshold has given the
    // core back (spin -> yield -> exit); the request that finds it gone
    // pays the classic re-entry. This is the knob that makes transition
    // count scale with idleness instead of load.
    if (ch.parked && t - ch.lastActive > config_.idleParkCycles) {
        sgx::Machine& m = machine();
        (void)ch.req.abandon(m, ch.pollerCore);
        (void)ch.resp.abandon(m, ch.pollerCore);
        ++stats_.idleFallbacks;
        unparkTenant(ch);
        // Re-park immediately for the request being served now: this is
        // the classic-entry fallback cost (EENTER + one NEENTER per
        // deeper chain hop), paid once per idle episode.
        hw::CoreId core;
        if (takeCore(core)) {
            urts_.kernel().schedule(core, urts_.pid());
            std::vector<hw::Paddr> tcses;
            bool ok = false;
            auto rootTcs = urts_.idleTcs(*ch.chain.front());
            if (rootTcs && m.eenter(core, rootTcs.value())) {
                tcses.push_back(rootTcs.value());
                ok = true;
                for (std::size_t i = 1; ok && i < ch.chain.size(); ++i) {
                    auto tcs = urts_.idleTcs(*ch.chain[i]);
                    if (tcs && m.neenter(core, tcs.value())) {
                        tcses.push_back(tcs.value());
                    } else {
                        ok = false;
                    }
                }
                if (!ok) {
                    while (m.core(core).depth() >= 2) {
                        if (!m.neexit(core)) break;
                    }
                    (void)m.eexit(core);
                }
            }
            if (ok) {
                ch.pollerCore = core;
                ch.parkTcses = tcses;
                ch.parked = true;
                ch.lastActive = t;
                ++stats_.armings;
            } else {
                releaseCore(core);
            }
        }
    }
    auto gwIt = gateways_.find(ch.outer);
    if (gwIt == gateways_.end()) return;
    GatewayChannel& gw = gwIt->second;
    if (gw.parked && t - gw.lastActive > config_.idleParkCycles) {
        sgx::Machine& m = machine();
        (void)gw.req.abandon(m, gw.pollerCore);
        (void)gw.resp.abandon(m, gw.pollerCore);
        ++stats_.idleFallbacks;
        unparkGateway(gw);
        hw::CoreId core;
        if (takeCore(core)) {
            urts_.kernel().schedule(core, urts_.pid());
            auto tcs = urts_.idleTcs(*gw.outer);
            if (tcs && m.eenter(core, tcs.value())) {
                gw.pollerCore = core;
                gw.parkTcs = tcs.value();
                gw.parked = true;
                gw.lastActive = t;
                ++stats_.armings;
            } else {
                releaseCore(core);
            }
        }
    }
}

std::vector<SwitchlessEngine::MidChannel*>
SwitchlessEngine::midsFor(const TenantChannel& ch)
{
    std::vector<MidChannel*> out;
    for (std::size_t i = 1; i + 1 < ch.chain.size(); ++i) {
        auto it = mids_.find(ch.chain[i]);
        if (it != mids_.end()) out.push_back(&it->second);
    }
    return out;
}

Result<Bytes>
SwitchlessEngine::call(std::uint64_t key, const Endpoint& ep, ByteView blob,
                       hw::CoreId hostCore)
{
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return Err::Unavailable;
    TenantChannel& ch = it->second;
    auto gwIt = gateways_.find(ch.outer);
    if (gwIt == gateways_.end()) return Err::Unavailable;
    GatewayChannel& gw = gwIt->second;
    std::vector<MidChannel*> mids = midsFor(ch);
    if (ch.chain.size() >= 3 && mids.size() != ch.chain.size() - 2) {
        // A mid hop the chain depends on is gone: re-arm from scratch.
        disarm(key);
        return Err::Unavailable;
    }

    sgx::Machine& m = machine();

    // Deterministic poller-wedge fault site: the poller core stops
    // draining but the channel stays armed, so the caller sees typed
    // Err::Unavailable on every attempt while okServed flatlines — the
    // exact signature the supervisor's watchdog keys on. Recovery is a
    // disarm (the supervisor's kick rung); the next ready() re-arms a
    // fresh channel. The wedge refuses *before* posting so no descriptor
    // is ever orphaned.
    if (m.faultFires(fault::FaultSite::PollerWedge, hostCore)) {
        ch.wedged = true;
        ++stats_.pollerWedges;
    }
    if (ch.wedged) return Err::Unavailable;

    idleCheck(key, ch);
    if (!ch.parked || !gw.parked) {
        // Idle fallback could not re-arm (cores or TCSes exhausted):
        // classic path until pressure eases.
        disarm(key);
        return Err::Unavailable;
    }
    for (MidChannel* mid : mids) {
        if (!mid->parked) {
            disarm(key);
            return Err::Unavailable;
        }
    }
    if (!resumeGateway(gw) || !resumeTenant(ch)) {
        disarm(key);
        return Err::Unavailable;
    }
    for (MidChannel* mid : mids) {
        if (!resumeMid(*mid)) {
            disarm(key);
            return Err::Unavailable;
        }
    }

    if (blob.size() < 4 || blob.size() > config_.hostStagingBytes) {
        return Err::BadCallBuffer;
    }

    // ---- host -> gateway: post into untrusted shared memory ----------
    Status st = m.write(hostCore, gw.stagingVa, blob.data(), blob.size());
    if (!st) return st;
    const std::uint64_t reqId = nextRequestId_++;
    Desc d;
    d.id = reqId;
    d.va = gw.stagingVa;
    d.len = blob.size();
    st = gw.req.tryPush(m, hostCore, d);
    if (!st) return st;

    // Deterministic ring-stall fault site: the descriptor is posted but
    // the consumer never drains it. Recovery must abandon the in-flight
    // entry (SwitchlessFallback pairs the orphaned SwitchlessPost) and
    // poison the channel so the caller retries classically — never a
    // silent drop, never a wedge.
    if (m.faultFires(fault::FaultSite::RingStall, hostCore)) {
        ++stats_.ringStalls;
        disarm(key);
        return Err::Unavailable;
    }

    // A mid-pump failure (faulted access, evicted pages, poisoned
    // tenant) may leave descriptors in flight. Poisoning the channel —
    // disarm abandons the tier-2 rings with SwitchlessFallback — keeps
    // the post/drain pairing whole; the caller retries classically and
    // a later ready() re-arms. Tier-1 orphans are tolerated by the
    // drain-until-match loops in the pump.
    auto hardFail = [&](Status s) -> Result<Bytes> {
        disarm(key);
        return s;
    };

    Status pumped = pumpEnclaveSide(ch, gw, mids, ep, reqId);
    if (!pumped) return hardFail(pumped);

    // ---- host: harvest -----------------------------------------------
    auto done = popFor(m, gw.resp, hostCore, reqId);
    if (!done) return hardFail(done.status());
    Bytes result(done.value().len);
    st = m.read(hostCore, done.value().va, result.data(), result.size());
    if (!st) return hardFail(st);

    ++stats_.calls;
    return result;
}

Status
SwitchlessEngine::pumpEnclaveSide(TenantChannel& ch, GatewayChannel& gw,
                                  const std::vector<MidChannel*>& mids,
                                  const Endpoint& ep, std::uint64_t reqId)
{
    sgx::Machine& m = machine();

    // One descriptor stop per relay hop, root first; the leaf's rings
    // and staging are the final forwarding target.
    struct Hop {
        DescRing* req;
        DescRing* resp;
        hw::Vaddr staging;
        hw::CoreId core;
        std::uint64_t cap;
        std::uint64_t* lastActive;
    };
    std::vector<Hop> hops;
    hops.push_back({&gw.req, &gw.resp, gw.stagingVa, gw.pollerCore,
                    config_.hostStagingBytes, &gw.lastActive});
    for (MidChannel* mid : mids) {
        hops.push_back({&mid->req, &mid->resp, mid->stagingVa,
                        mid->pollerCore, config_.gwStagingBytes,
                        &mid->lastActive});
    }
    const Hop leafHop{&ch.req, &ch.resp, ch.stagingVa, ch.pollerCore,
                      config_.gwStagingBytes, &ch.lastActive};

    // ---- downward: every relay hop drains, validates, forwards -------
    for (std::size_t i = 0; i < hops.size(); ++i) {
        const Hop& hop = hops[i];
        const Hop& next = (i + 1 < hops.size()) ? hops[i + 1] : leafHop;
        auto req = popFor(m, *hop.req, hop.core, reqId);
        if (!req) return req.status();
        if (req.value().len > config_.gwStagingBytes ||
            req.value().len > hop.cap || req.value().len < 4) {
            return Err::BadCallBuffer;
        }
        // Copy through enclave-validated staging: the descriptor's
        // [va,len] is only ever dereferenced by the hop's own validated
        // access, and the payload's slot header must match the channel.
        Bytes payload(req.value().len);
        Status st = m.read(hop.core, req.value().va, payload.data(),
                           payload.size());
        if (!st) return st;
        if (loadLe32(payload.data()) != ep.slot) {
            return Err::BadCallBuffer;
        }
        st = m.write(hop.core, next.staging, payload.data(), payload.size());
        if (!st) return st;
        *hop.lastActive = now();

        Desc fwd;
        fwd.id = reqId;
        fwd.va = next.staging;
        fwd.len = payload.size();
        st = next.req->tryPush(m, hop.core, fwd);
        if (!st) return st;
    }

    // ---- leaf poller: drain and serve without any transition ---------
    auto inReq = popFor(m, ch.req, ch.pollerCore, reqId);
    if (!inReq) return inReq.status();
    Bytes desc(16);
    storeLe64(desc.data(), inReq.value().va);
    storeLe64(desc.data() + 8, inReq.value().len);
    sdk::TrustedEnv innerEnv(urts_, *ch.inner, ch.pollerCore);
    auto servedLen = innerEnv.residentCall(ep.innerCall, desc);
    if (!servedLen) return servedLen.status();
    if (servedLen.value().size() != 8) return Err::BadCallBuffer;
    const std::uint64_t respLen = loadLe64(servedLen.value().data());
    if (respLen > config_.gwStagingBytes) return Err::BadCallBuffer;
    ch.lastActive = now();

    Desc back;
    back.id = reqId;
    back.va = ch.stagingVa;
    back.len = respLen;
    Status st = ch.resp.tryPush(m, ch.pollerCore, back);
    if (!st) return st;

    // ---- upward: relay the response hop by hop to the host ring ------
    for (std::size_t i = hops.size(); i-- > 0;) {
        const Hop& hop = hops[i];
        const Hop& next = (i + 1 < hops.size()) ? hops[i + 1] : leafHop;
        auto inResp = popFor(m, *next.resp, hop.core, reqId);
        if (!inResp) return inResp.status();
        if (inResp.value().len > hop.cap) {
            return Err::BadCallBuffer;
        }
        Bytes respBytes(inResp.value().len);
        st = m.read(hop.core, inResp.value().va, respBytes.data(),
                    respBytes.size());
        if (!st) return st;
        st = m.write(hop.core, hop.staging, respBytes.data(),
                     respBytes.size());
        if (!st) return st;
        Desc out;
        out.id = reqId;
        out.va = hop.staging;
        out.len = respBytes.size();
        st = hop.resp->tryPush(m, hop.core, out);
        if (!st) return st;
    }
    return Status::ok();
}

std::optional<Result<Bytes>>
SwitchlessEngine::relayOcall(sdk::LoadedEnclave& enclave, hw::CoreId core,
                             const std::string& name,
                             const sdk::UntrustedFn& fn, ByteView arg)
{
    if (!config_.enabled || !config_.ocallRelay) return std::nullopt;
    // Ocall rings are per chain root: every enclave in a tree shares
    // its root's channel.
    sdk::LoadedEnclave* root = &enclave;
    while (root->outer() != nullptr) root = root->outer();

    sgx::Machine& m = machine();
    os::Kernel& kernel = urts_.kernel();

    auto it = ocallChannels_.find(root);
    if (it == ocallChannels_.end()) {
        // Lazy arm: dedicated rings + staging in host-shared memory, so
        // enclaves that never ocall pay nothing.
        OcallChannel oc;
        const std::uint64_t ringBytes =
            DescRing::bytesFor(config_.ringCapacity);
        const std::uint64_t ringPages =
            (ringBytes + hw::kPageSize - 1) / hw::kPageSize;
        const std::uint64_t stagingPages =
            (config_.hostStagingBytes + hw::kPageSize - 1) / hw::kPageSize;
        hw::Vaddr base =
            kernel.mapUntrusted(urts_.pid(), 2 * ringPages + stagingPages);
        if (base == 0) return std::nullopt;
        const hw::CoreId host = 0;
        if (!oc.req.init(m, host, base, config_.ringCapacity) ||
            !oc.resp.init(m, host, base + ringPages * hw::kPageSize,
                          config_.ringCapacity)) {
            return std::nullopt;
        }
        oc.stagingVa = base + 2 * ringPages * hw::kPageSize;
        oc.stagingBytes = stagingPages * hw::kPageSize;
        it = ocallChannels_.emplace(root, oc).first;
    }
    OcallChannel& oc = it->second;
    // Staging layout: [u32 status][payload]. Oversized arguments fall
    // back to the classic path (which has no marshalling limit).
    if (arg.size() + 4 > oc.stagingBytes) return std::nullopt;

    m.charge(m.costs().ocallDispatch);
    publishOcall(m, trace::EventKind::SdkOcallBegin, core, name.c_str());
    ++stats_.ocallRelays;
    auto fail = [&](Status st) -> std::optional<Result<Bytes>> {
        publishOcall(m, trace::EventKind::SdkOcallEnd, core, name.c_str());
        return Result<Bytes>(st);
    };

    // Enclave side: stage the argument in untrusted memory (an enclave
    // may legally write untrusted pages — that asymmetry is the whole
    // trick) and post the descriptor. No EEXIT.
    Status st = Status::ok();
    if (!arg.empty()) {
        st = m.write(core, oc.stagingVa + 4, arg.data(), arg.size());
        if (!st) return fail(st);
    }
    const std::uint64_t id = nextRequestId_++;
    Desc d;
    d.id = id;
    d.va = oc.stagingVa + 4;
    d.len = arg.size();
    st = oc.req.tryPush(m, core, d);
    if (!st) return fail(st);

    // Host worker side (deterministic, inline on host core 0): drain,
    // run the untrusted function, stage status + result.
    const hw::CoreId host = 0;
    auto req = popFor(m, oc.req, host, id);
    if (!req) return fail(req.status());
    Bytes hostArg(req.value().len);
    if (!hostArg.empty()) {
        st = m.read(host, req.value().va, hostArg.data(), hostArg.size());
        if (!st) return fail(st);
    }
    Result<Bytes> hostResult = fn(ByteView(hostArg.data(), hostArg.size()));
    std::uint8_t header[4];
    storeLe32(header, std::uint32_t(hostResult.code()));
    st = m.write(host, oc.stagingVa, header, 4);
    if (!st) return fail(st);
    std::uint64_t respLen = 0;
    if (hostResult) {
        respLen = hostResult.value().size();
        if (respLen + 4 > oc.stagingBytes) return fail(Err::BadCallBuffer);
        if (respLen != 0) {
            st = m.write(host, oc.stagingVa + 4, hostResult.value().data(),
                         respLen);
            if (!st) return fail(st);
        }
    }
    Desc back;
    back.id = id;
    back.va = oc.stagingVa;
    back.len = respLen + 4;
    st = oc.resp.tryPush(m, host, back);
    if (!st) return fail(st);

    // Enclave side: harvest, still resident — zero transitions paid.
    auto done = popFor(m, oc.resp, core, id);
    if (!done) return fail(done.status());
    if (done.value().len < 4) return fail(Err::BadCallBuffer);
    Bytes blob(done.value().len);
    st = m.read(core, done.value().va, blob.data(), blob.size());
    if (!st) return fail(st);
    publishOcall(m, trace::EventKind::SdkOcallEnd, core, name.c_str());
    const Err code = Err(loadLe32(blob.data()));
    if (code != Err::Ok) return Result<Bytes>(code);
    return Result<Bytes>(Bytes(blob.begin() + 4, blob.end()));
}

}  // namespace nesgx::switchless
