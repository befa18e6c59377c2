#include "switchless/engine.h"

#include <algorithm>

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

/** The host worker core that services host-memory rings from outside. */
constexpr hw::CoreId kHostCore = 0;

std::uint64_t
pagesFor(std::uint64_t bytes)
{
    return (bytes + hw::kPageSize - 1) / hw::kPageSize;
}

/** Unwinds a parked (or partly parked) nest: one NEEXIT per chain link
 *  below the root, then the EEXIT out. */
void
exitNest(sgx::Machine& m, hw::CoreId core)
{
    while (m.core(core).depth() >= 2) {
        if (!m.neexit(core)) break;
    }
    if (m.core(core).inEnclaveMode()) (void)m.eexit(core);
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
SwitchlessEngine::mapHostRings(Hop& hop)
{
    // Two rings plus the request/response staging buffer.
    const std::uint64_t ringPages =
        pagesFor(DescRing::bytesFor(config_.ringCapacity));
    const hw::Vaddr base = urts_.kernel().mapUntrusted(
        urts_.pid(), 2 * ringPages + pagesFor(config_.hostStagingBytes));
    if (base == 0) return false;
    hop.ringReqVa = base;
    hop.ringRespVa = base + ringPages * hw::kPageSize;
    hop.stagingVa = base + 2 * ringPages * hw::kPageSize;
    return true;
}

std::uint64_t
SwitchlessEngine::stagingCap(const Hop& hop) const
{
    return hop.ringHost() ? config_.gwStagingBytes : config_.hostStagingBytes;
}

Status
SwitchlessEngine::initRings(Hop& hop, hw::CoreId core)
{
    sgx::Machine& m = machine();
    const sdk::LoadedEnclave* host = hop.ringHost();
    const std::uint64_t eid = host ? host->secsPage() : 0;
    Status st = hop.req.init(m, core, hop.ringReqVa, config_.ringCapacity, eid);
    if (!st) return st;
    return hop.resp.init(m, core, hop.ringRespVa, config_.ringCapacity, eid);
}

void
SwitchlessEngine::freeHeapRings(Hop& hop)
{
    sdk::LoadedEnclave* host = hop.ringHost();
    if (host == nullptr) return;
    if (hop.stagingVa) host->heap().free(hop.stagingVa);
    if (hop.ringRespVa) host->heap().free(hop.ringRespVa);
    if (hop.ringReqVa) host->heap().free(hop.ringReqVa);
}

bool
SwitchlessEngine::arm(Hop& hop)
{
    sdk::LoadedEnclave* host = hop.ringHost();
    // A root hop's plumbing lives in host-shared untrusted memory.
    if (host == nullptr && !mapHostRings(hop)) return false;
    if (!takeCore(hop.pollerCore)) return false;
    urts_.kernel().schedule(hop.pollerCore, urts_.pid());

    // A deeper hop's plumbing lives in its *parent's trusted heap*:
    // writable by the parent's poller (its own enclave) and readable/
    // writable by this hop's poller through the outer-closure walk.
    if (host != nullptr) {
        const std::uint64_t ringBytes =
            DescRing::bytesFor(config_.ringCapacity);
        hop.ringReqVa = host->heap().alloc(ringBytes);
        hop.ringRespVa = host->heap().alloc(ringBytes);
        hop.stagingVa = host->heap().alloc(config_.gwStagingBytes);
    }
    if (hop.ringReqVa == 0 || hop.ringRespVa == 0 || hop.stagingVa == 0 ||
        !park(hop, hop.pollerCore, true)) {
        freeHeapRings(hop);
        releaseCore(hop.pollerCore);
        return false;
    }
    hop.lastActive = now();
    ++stats_.armings;
    return true;
}

bool
SwitchlessEngine::park(Hop& hop, hw::CoreId core, bool fresh)
{
    sgx::Machine& m = machine();
    std::vector<hw::Paddr> tcses;
    for (std::size_t i = 0; i < hop.prefix.size(); ++i) {
        sdk::LoadedEnclave* link = hop.prefix[i];
        // The core now sits in the rings' host, one step above the
        // hop's own enclave: host-memory rings are initialised from the
        // host side, heap rings from enclave mode.
        if (fresh && i + 1 == hop.prefix.size() &&
            !initRings(hop, hop.ringHost() ? core : kHostCore)) {
            exitNest(m, core);
            return false;
        }
        auto tcs = urts_.idleTcs(*link);
        if (!tcs) {
            exitNest(m, core);
            return false;
        }
        if (fresh) urts_.kernel().touchEnclave(link->secsPage());
        if (!(i == 0 ? m.eenter(core, tcs.value())
                     : m.neenter(core, tcs.value()))) {
            exitNest(m, core);
            return false;
        }
        tcses.push_back(tcs.value());
    }
    hop.pollerCore = core;
    hop.parkTcses = std::move(tcses);
    hop.parked = true;
    return true;
}

bool
SwitchlessEngine::ready(std::uint64_t key, const Endpoint& ep)
{
    const std::vector<sdk::LoadedEnclave*>& chain = ep.chain;
    if (chain.size() < 2 ||
        std::find(chain.begin(), chain.end(), nullptr) != chain.end()) {
        return false;
    }
    auto it = leaves_.find(key);
    if (it != leaves_.end()) {
        // A rebuilt enclave comes back as a different LoadedEnclave;
        // any pointer mismatch along the chain means a poller is parked
        // in a dead enclave — tear it down and re-arm fresh.
        if (it->second.prefix == chain) return true;
        disarm(key);
    }
    // One relay hop per parent link, root first; a hop already parked
    // for another channel is shared.
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (relays_.count(chain[i]) != 0) continue;
        Hop relay;
        relay.prefix.assign(chain.begin(), chain.begin() + long(i) + 1);
        if (!arm(relay)) {
            releaseRelays(chain, false);
            return false;
        }
        relays_.emplace(chain[i], std::move(relay));
    }
    Hop leaf;
    leaf.prefix = chain;
    if (!arm(leaf)) {
        releaseRelays(chain, false);
        return false;
    }
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        ++relays_.at(chain[i]).riders;
    }
    leaves_.emplace(key, std::move(leaf));
    return true;
}

bool
SwitchlessEngine::resume(Hop& hop)
{
    sgx::Machine& m = machine();
    if (m.core(hop.pollerCore).inEnclaveMode()) return true;
    if (hop.parkTcses.empty()) return false;
    // The poller took an AEX (IPI shootdown, storm): the whole nest is
    // saved in the bottom (chain-root) TCS — ERESUME puts it back.
    return bool(m.eresume(hop.pollerCore, hop.parkTcses.front()));
}

void
SwitchlessEngine::unpark(Hop& hop)
{
    if (!hop.parked) return;
    // An AEX'd poller resumes first so the exit path is the clean one;
    // when even that fails the enclave is gone and the frames died with
    // it.
    if (resume(hop)) exitNest(machine(), hop.pollerCore);
    hop.parked = false;
    releaseCore(hop.pollerCore);
}

void
SwitchlessEngine::disarmHop(Hop& hop)
{
    sgx::Machine& m = machine();
    // Never silently drop in-flight entries. Host-memory rings drain
    // from the host side; heap rings need an enclave-mode core: the
    // parked poller when it is still viable, else the trace-only poison
    // marker (the backing enclave is dead and the caller's completion
    // machinery re-issues through the classic path).
    const bool inHost = hop.ringHost() == nullptr;
    const bool drained = inHost || (hop.parked && resume(hop));
    if (drained) {
        const hw::CoreId core = inHost ? kHostCore : hop.pollerCore;
        if (hop.req.bound()) (void)hop.req.abandon(m, core);
        if (hop.resp.bound()) (void)hop.resp.abandon(m, core);
    }
    unpark(hop);
    if (!drained) {
        if (hop.req.bound()) hop.req.markAbandoned(m);
        if (hop.resp.bound()) hop.resp.markAbandoned(m);
    }
    freeHeapRings(hop);
}

void
SwitchlessEngine::releaseRelays(const std::vector<sdk::LoadedEnclave*>& chain,
                                bool leaving)
{
    // Deepest first: each hop's rings live in the next one up. The root
    // hop's rings are host memory and it stays parked for the next
    // rider until its enclave goes (disarmRelay) or the engine does.
    for (std::size_t i = chain.size() - 1; i-- > 0;) {
        auto it = relays_.find(chain[i]);
        if (it == relays_.end()) continue;
        Hop& relay = it->second;
        if (leaving && relay.riders > 0) --relay.riders;
        if (relay.riders == 0 && relay.ringHost() != nullptr) {
            disarmHop(relay);
            relays_.erase(it);
        }
    }
}

void
SwitchlessEngine::disarm(std::uint64_t key)
{
    auto it = leaves_.find(key);
    if (it == leaves_.end()) return;
    disarmHop(it->second);
    releaseRelays(it->second.prefix, true);
    leaves_.erase(it);
}

void
SwitchlessEngine::disarmRelay(sdk::LoadedEnclave* enclave)
{
    auto it = relays_.find(enclave);
    if (it == relays_.end()) return;
    disarmHop(it->second);
    relays_.erase(it);
}

void
SwitchlessEngine::disarmAll()
{
    // Leaves first (their last riders' deeper relay hops go with them),
    // then the roots: each layer's rings live one layer up.
    while (!leaves_.empty()) disarm(leaves_.begin()->first);
    while (!relays_.empty()) disarmRelay(relays_.begin()->first);
    for (auto& [root, rings] : ocallRings_) disarmHop(rings);
    ocallRings_.clear();
}

ChannelProgress
SwitchlessEngine::channelProgress(std::uint64_t key) const
{
    ChannelProgress out;
    auto it = leaves_.find(key);
    if (it == leaves_.end()) return out;
    out.armed = true;
    out.wedged = it->second.wedged;
    out.lastActive = it->second.lastActive;
    return out;
}

void
SwitchlessEngine::idleCheck(Hop& hop, std::uint64_t t)
{
    // A poller whose rings stayed empty past the threshold has given the
    // core back (spin -> yield -> exit); the request that finds it gone
    // pays the classic re-entry. This is the knob that makes transition
    // count scale with idleness instead of load.
    if (!hop.parked || t - hop.lastActive <= config_.idleParkCycles) return;
    sgx::Machine& m = machine();
    (void)hop.req.abandon(m, hop.pollerCore);
    (void)hop.resp.abandon(m, hop.pollerCore);
    ++stats_.idleFallbacks;
    unpark(hop);
    // Re-park immediately for the request being served now: this is the
    // classic-entry fallback cost (EENTER + one NEENTER per deeper chain
    // link), paid once per idle episode.
    hw::CoreId core = 0;
    if (!takeCore(core)) return;
    urts_.kernel().schedule(core, urts_.pid());
    if (park(hop, core, false)) {
        hop.lastActive = t;
        ++stats_.armings;
    } else {
        releaseCore(core);
    }
}

Result<Bytes>
SwitchlessEngine::call(std::uint64_t key, const Endpoint& ep, ByteView blob,
                       hw::CoreId hostCore)
{
    auto it = leaves_.find(key);
    if (it == leaves_.end()) return Err::Unavailable;
    Hop& leaf = it->second;
    // The hops this call rides, root first, leaf last.
    std::vector<Hop*> path;
    for (std::size_t i = 0; i + 1 < leaf.prefix.size(); ++i) {
        auto relay = relays_.find(leaf.prefix[i]);
        if (relay == relays_.end()) {
            // A relay hop the chain depends on is gone: re-arm from
            // scratch.
            disarm(key);
            return Err::Unavailable;
        }
        path.push_back(&relay->second);
    }
    path.push_back(&leaf);
    Hop& root = *path.front();

    sgx::Machine& m = machine();

    // Deterministic poller-wedge fault site: the poller core stops
    // draining but the channel stays armed, so the caller sees typed
    // Err::Unavailable on every attempt while okServed flatlines — the
    // exact signature the supervisor's watchdog keys on. Recovery is a
    // disarm (the supervisor's kick rung); the next ready() re-arms a
    // fresh channel. The wedge refuses *before* posting so no descriptor
    // is ever orphaned.
    if (m.faultFires(fault::FaultSite::PollerWedge, hostCore)) {
        leaf.wedged = true;
        ++stats_.pollerWedges;
    }
    if (leaf.wedged) return Err::Unavailable;

    // Only the chain's ends fall back when idle; the relay hops between
    // stay parked while any channel rides them.
    const std::uint64_t t = now();
    idleCheck(leaf, t);
    idleCheck(root, t);
    // Idle fallback could not re-park (cores or TCSes exhausted), or an
    // AEX'd poller cannot be resumed: classic path until pressure eases.
    bool viable = true;
    for (const Hop* hop : path) viable = viable && hop->parked;
    viable = viable && resume(root) && resume(leaf);
    for (std::size_t i = 1; viable && i + 1 < path.size(); ++i) {
        viable = resume(*path[i]);
    }
    if (!viable) {
        disarm(key);
        return Err::Unavailable;
    }

    if (blob.size() < 4 || blob.size() > config_.hostStagingBytes) {
        return Err::BadCallBuffer;
    }

    // ---- host -> root: post into untrusted shared memory -------------
    Status st = m.write(hostCore, root.stagingVa, blob.data(), blob.size());
    if (!st) return st;
    const std::uint64_t reqId = nextRequestId_++;
    Desc d;
    d.id = reqId;
    d.va = root.stagingVa;
    d.len = blob.size();
    st = root.req.tryPush(m, hostCore, d);
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
    // disarm abandons the leaf rings with SwitchlessFallback — keeps
    // the post/drain pairing whole; the caller retries classically and
    // a later ready() re-arms. Orphans on shared relay rings are
    // tolerated by the drain-until-match loops in the pump.
    auto hardFail = [&](Status s) -> Result<Bytes> {
        disarm(key);
        return s;
    };

    Status pumped = pumpEnclaveSide(path, ep, reqId);
    if (!pumped) return hardFail(pumped);

    // ---- host: harvest -----------------------------------------------
    auto done = popFor(m, root.resp, hostCore, reqId);
    if (!done) return hardFail(done.status());
    Bytes result(done.value().len);
    st = m.read(hostCore, done.value().va, result.data(), result.size());
    if (!st) return hardFail(st);

    ++stats_.calls;
    return result;
}

Status
SwitchlessEngine::pumpEnclaveSide(const std::vector<Hop*>& path,
                                  const Endpoint& ep, std::uint64_t reqId)
{
    sgx::Machine& m = machine();
    Hop& leaf = *path.back();

    // ---- downward: every relay hop drains, validates, forwards -------
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        Hop& hop = *path[i];
        Hop& next = *path[i + 1];
        auto req = popFor(m, hop.req, hop.pollerCore, reqId);
        if (!req) return req.status();
        if (req.value().len > config_.gwStagingBytes ||
            req.value().len > stagingCap(hop) || req.value().len < 4) {
            return Err::BadCallBuffer;
        }
        // Copy through enclave-validated staging: the descriptor's
        // [va,len] is only ever dereferenced by the hop's own validated
        // access, and the payload's slot header must match the channel.
        Bytes payload(req.value().len);
        Status st = m.read(hop.pollerCore, req.value().va, payload.data(),
                           payload.size());
        if (!st) return st;
        if (loadLe32(payload.data()) != ep.slot) {
            return Err::BadCallBuffer;
        }
        st = m.write(hop.pollerCore, next.stagingVa, payload.data(),
                     payload.size());
        if (!st) return st;
        hop.lastActive = now();

        Desc fwd;
        fwd.id = reqId;
        fwd.va = next.stagingVa;
        fwd.len = payload.size();
        st = next.req.tryPush(m, hop.pollerCore, fwd);
        if (!st) return st;
    }

    // ---- leaf poller: drain and serve without any transition ---------
    auto inReq = popFor(m, leaf.req, leaf.pollerCore, reqId);
    if (!inReq) return inReq.status();
    Bytes desc(16);
    storeLe64(desc.data(), inReq.value().va);
    storeLe64(desc.data() + 8, inReq.value().len);
    sdk::TrustedEnv innerEnv(urts_, *leaf.prefix.back(), leaf.pollerCore);
    auto servedLen = innerEnv.residentCall(ep.innerCall, desc);
    if (!servedLen) return servedLen.status();
    if (servedLen.value().size() != 8) return Err::BadCallBuffer;
    const std::uint64_t respLen = loadLe64(servedLen.value().data());
    if (respLen > stagingCap(leaf)) return Err::BadCallBuffer;
    leaf.lastActive = now();

    Desc back;
    back.id = reqId;
    back.va = leaf.stagingVa;
    back.len = respLen;
    Status st = leaf.resp.tryPush(m, leaf.pollerCore, back);
    if (!st) return st;

    // ---- upward: relay the response hop by hop to the host ring ------
    for (std::size_t i = path.size() - 1; i-- > 0;) {
        Hop& hop = *path[i];
        Hop& next = *path[i + 1];
        auto inResp = popFor(m, next.resp, hop.pollerCore, reqId);
        if (!inResp) return inResp.status();
        if (inResp.value().len > stagingCap(hop)) {
            return Err::BadCallBuffer;
        }
        Bytes respBytes(inResp.value().len);
        st = m.read(hop.pollerCore, inResp.value().va, respBytes.data(),
                    respBytes.size());
        if (!st) return st;
        st = m.write(hop.pollerCore, hop.stagingVa, respBytes.data(),
                     respBytes.size());
        if (!st) return st;
        Desc out;
        out.id = reqId;
        out.va = hop.stagingVa;
        out.len = respBytes.size();
        st = hop.resp.tryPush(m, hop.pollerCore, out);
        if (!st) return st;
    }
    return Status::ok();
}

std::optional<Result<Bytes>>
SwitchlessEngine::relayOcall(sdk::LoadedEnclave& enclave, hw::CoreId core,
                             const std::string& name,
                             const sdk::UntrustedFn& fn, ByteView arg)
{
    // Ocall rings are per chain root: every enclave in a tree shares
    // its root's rings.
    sdk::LoadedEnclave* root = &enclave;
    while (root->outer() != nullptr) root = root->outer();

    sgx::Machine& m = machine();

    auto it = ocallRings_.find(root);
    if (it == ocallRings_.end()) {
        // Lazy arm: dedicated host-memory rings + staging, so enclaves
        // that never ocall pay nothing.
        Hop rings;
        if (!mapHostRings(rings) || !initRings(rings, kHostCore)) {
            return std::nullopt;
        }
        it = ocallRings_.emplace(root, rings).first;
    }
    Hop& oc = it->second;
    const std::uint64_t stagingBytes =
        pagesFor(config_.hostStagingBytes) * hw::kPageSize;
    // Staging layout: [u32 status][payload]. Oversized arguments fall
    // back to the classic path (which has no marshalling limit).
    if (arg.size() + 4 > stagingBytes) return std::nullopt;

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

    // Host worker side (deterministic, inline on the host core): drain,
    // run the untrusted function, stage status + result.
    const hw::CoreId host = kHostCore;
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
        if (respLen + 4 > stagingBytes) return fail(Err::BadCallBuffer);
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
