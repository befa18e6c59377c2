/**
 * SwitchlessEngine: the exit-less call layer (ISSUE.md tentpole).
 *
 * Classic serving pays two transition pairs per dispatch: EENTER/EEXIT
 * into the gateway outer and NEENTER/NEEXIT into the tenant inner. This
 * engine eliminates both from the steady-state request path:
 *
 *   tier 1 (host <-> gateway): descriptor rings + a staging buffer in
 *     host-shared *untrusted* memory. A gateway poller core is parked
 *     inside the outer (one initial EENTER) and services the ring from
 *     enclave mode — enclave code may legally read/write untrusted
 *     memory, so no exit is needed.
 *
 *   tier 2 (gateway <-> inner): rings + staging in the *outer's trusted
 *     heap*. A tenant poller core is parked inside the inner (one
 *     initial EENTER+NEENTER); inner enclaves reach outer-heap pages
 *     through the nested-EPCM outer-closure walk (paper Fig. 6), so
 *     again no transition.
 *
 * A request then flows host -> outer -> inner and back entirely through
 * memory: post, poll, drain. Steady-state transitions per request -> 0;
 * the only classic entries left are (re-)arming and idle fallback —
 * a poller whose rings stay empty past `idleParkCycles` gives the core
 * back (EEXIT/NEEXIT out) and the next request re-parks it with classic
 * entries. Transitions therefore scale with *idleness*, not with load.
 *
 * Security argument (mirrors the PR-4 by-reference contract): ring
 * descriptors carry only [va, len]. The consumer never dereferences
 * host-chosen pointers blindly — the gateway poller validates the
 * length against its staging capacity and *copies* the payload into
 * enclave-validated staging through its own access rights before the
 * inner ever sees it; the inner reads only outer-heap staging its
 * gateway wrote. A malicious descriptor can at worst fault the poller's
 * own validated access, never corrupt enclave state.
 *
 * The engine is deliberately serve-layer agnostic: channels are keyed
 * by an opaque `key` (the serve layer passes tenant ids) and each call
 * carries an Endpoint resolved by the caller, so this library depends
 * only on the SDK beneath it.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sdk/runtime.h"
#include "switchless/ring.h"
#include "support/counter.h"

namespace nesgx::switchless {

struct Config {
    bool enabled = false;
    /** Slots per descriptor ring. */
    std::uint64_t ringCapacity = 16;
    /** Ring idle time (cycles) after which a parked poller falls back:
     *  it exits the enclave and the next request re-arms it with a
     *  classic EENTER. ~14 ms at 3.6 GHz. */
    std::uint64_t idleParkCycles = 50'000'000;
    /** Cores [0, hostCores) stay with host workers; poller cores are
     *  taken from the top of the core space downward. */
    std::uint32_t hostCores = 1;
    /** Host-side staging buffer per gateway channel (bytes). */
    std::uint64_t hostStagingBytes = 16 * 1024;
    /** Gateway-heap staging buffer per tenant channel (bytes). */
    std::uint64_t gwStagingBytes = 16 * 1024;
    /**
     * Serve enclave->host ocalls over shared-memory rings too: when on,
     * the engine registers as the SDK's OcallRelay and an ocall from any
     * enclave under an armed root pays zero EEXIT/EENTER transitions
     * (dedicated per-root ocall rings, armed lazily on first use). Off
     * by default: the classic ocall path stays byte-identical.
     */
    bool ocallRelay = false;
};

/** Per-call routing, resolved by the caller (serve layer). */
struct Endpoint {
    sdk::LoadedEnclave* outer = nullptr;
    sdk::LoadedEnclave* inner = nullptr;
    /** Inner n_ecall the parked poller dispatches to. */
    std::string innerCall;
    /** Caller slot id; every relay hop cross-checks it against the
     *  payload header before forwarding (defense in depth). */
    std::uint32_t slot = 0;
    /**
     * Full ancestor chain, root first, leaf last. Empty = the classic
     * two-tier {outer, inner} shape. When set (size >= 2), the engine
     * arms one ring pair per parent-chain hop: the root hop in host
     * memory, every deeper hop in its parent's trusted heap, with a
     * poller parked at each depth.
     */
    std::vector<sdk::LoadedEnclave*> chain;

    /** Root of the chain: where the host-facing rings live. */
    sdk::LoadedEnclave* root() const
    {
        return chain.empty() ? outer : chain.front();
    }
    /** The leaf's direct parent: its rings live in this hop's heap. */
    sdk::LoadedEnclave* leafParent() const
    {
        return chain.empty() ? outer : chain[chain.size() - 2];
    }
    /** The serving leaf enclave. */
    sdk::LoadedEnclave* leaf() const
    {
        return chain.empty() ? inner : chain.back();
    }
    /** The chain in canonical form (derived for the classic shape). */
    std::vector<sdk::LoadedEnclave*> canonicalChain() const
    {
        if (!chain.empty()) return chain;
        return {outer, inner};
    }
};

/** Cumulative engine statistics (monotonic). */
struct EngineStats {
    Counter calls = 0;          ///< requests pumped switchlessly
    Counter armings = 0;        ///< channel park operations
    Counter idleFallbacks = 0;  ///< pollers unparked for idleness
    Counter ringStalls = 0;     ///< injected ring-stall faults
    Counter pollerWedges = 0;   ///< injected poller-wedge faults
    Counter ocallRelays = 0;    ///< ocalls served over rings (no exit)
};

/** Snapshot of one tenant channel's liveness for external supervision. */
struct ChannelProgress {
    bool armed = false;    ///< a channel exists for the key
    bool wedged = false;   ///< poller stopped draining (injected wedge)
    std::uint64_t lastActive = 0;  ///< sim cycles of last successful pump
};

class SwitchlessEngine : public sdk::OcallRelay {
  public:
    SwitchlessEngine(sdk::Urts& urts, Config config);
    ~SwitchlessEngine() override;

    SwitchlessEngine(const SwitchlessEngine&) = delete;
    SwitchlessEngine& operator=(const SwitchlessEngine&) = delete;

    bool enabled() const { return config_.enabled; }
    const Config& config() const { return config_; }
    const EngineStats& engineStats() const { return stats_; }

    /**
     * True when a switchless channel is armed (arming it now if needed)
     * for `key` over `ep`. False — caller uses the classic path — when
     * the engine is disabled or arming failed (no spare core, heap or
     * TCS); arming failure is degradation, never an error.
     */
    bool ready(std::uint64_t key, const Endpoint& ep);

    /**
     * Pumps one request blob through both ring tiers and returns the
     * response bytes, exactly as the classic gw_dispatch ecall would.
     * Requires a `ready()` channel. Errors surface with the same typed
     * codes the classic path uses, so the caller's retry/breaker/rebuild
     * machinery applies unchanged.
     */
    Result<Bytes> call(std::uint64_t key, const Endpoint& ep, ByteView blob,
                       hw::CoreId hostCore);

    /**
     * Tears down `key`'s channel: abandons in-flight ring entries
     * (SwitchlessFallback — never a silent drop), unparks the tenant
     * poller and frees its gateway-heap staging. Must run before the
     * tenant inner is rebuilt or unloaded.
     */
    void disarm(std::uint64_t key);

    /** Disarms every tenant channel and unparks the gateway pollers. */
    void disarmAll();

    /**
     * Liveness snapshot for `key` — the supervisor's view of ring
     * progress. A wedged channel stays armed but refuses every call
     * (Err::Unavailable) until something disarms it; disarm + re-arm is
     * the recovery (the supervisor's "kick" rung).
     */
    ChannelProgress channelProgress(std::uint64_t key) const;

    /**
     * sdk::OcallRelay: serves one enclave->host ocall over per-root
     * ocall rings with zero transitions. Declines (std::nullopt, no side
     * effects) when Config::ocallRelay is off or no channel can be
     * armed; the SDK then falls back to the classic EEXIT/EENTER path.
     */
    std::optional<Result<Bytes>> relayOcall(sdk::LoadedEnclave& enclave,
                                            hw::CoreId core,
                                            const std::string& name,
                                            const sdk::UntrustedFn& fn,
                                            ByteView arg) override;

  private:
    struct GatewayChannel {
        sdk::LoadedEnclave* outer = nullptr;
        DescRing req;
        DescRing resp;
        hw::Vaddr stagingVa = 0;
        hw::CoreId pollerCore = 0;
        hw::Paddr parkTcs = 0;
        bool parked = false;
        std::uint64_t lastActive = 0;
        std::uint64_t tenants = 0;  ///< tenant channels riding this outer
    };

    /**
     * One intermediate hop of a depth->=3 chain (e.g. the gateway of a
     * CVM -> gateway -> tenant tree): rings + staging in its *parent's*
     * trusted heap, a poller parked at this hop's depth. Refcounted by
     * the leaf channels whose chains pass through it. Keyed by the hop
     * enclave. Flat (depth-2) chains arm no mid channels at all, so
     * that path is untouched.
     */
    struct MidChannel {
        sdk::LoadedEnclave* parent = nullptr;  ///< heap owner of the rings
        sdk::LoadedEnclave* self = nullptr;    ///< poller parks here
        DescRing req;
        DescRing resp;
        hw::Vaddr ringReqVa = 0;  ///< parent-heap allocations to free
        hw::Vaddr ringRespVa = 0;
        hw::Vaddr stagingVa = 0;
        hw::CoreId pollerCore = 0;
        /** Park TCSes, bottom (chain root) first. */
        std::vector<hw::Paddr> parkTcses;
        bool parked = false;
        std::uint64_t lastActive = 0;
        std::uint64_t users = 0;  ///< leaf channels riding this hop
    };

    struct TenantChannel {
        sdk::LoadedEnclave* outer = nullptr;  ///< chain root (host rings)
        sdk::LoadedEnclave* inner = nullptr;  ///< serving leaf
        /** Heap owner of this channel's rings: the leaf's direct parent
         *  (== outer for the classic depth-2 shape). */
        sdk::LoadedEnclave* ringHost = nullptr;
        /** Canonical chain, root first, leaf last (rebuild detection:
         *  any pointer mismatch re-arms from scratch). */
        std::vector<sdk::LoadedEnclave*> chain;
        DescRing req;
        DescRing resp;
        hw::Vaddr ringReqVa = 0;   ///< heap allocations to free on disarm
        hw::Vaddr ringRespVa = 0;
        hw::Vaddr stagingVa = 0;
        hw::CoreId pollerCore = 0;
        /** Park TCSes, bottom (chain root) first. */
        std::vector<hw::Paddr> parkTcses;
        bool parked = false;
        std::uint64_t lastActive = 0;
        /** Injected poller-wedge: posts land but nothing drains. The
         *  channel stays armed and every call fails typed until a
         *  disarm (supervisor kick) tears it down. */
        bool wedged = false;
    };

    /**
     * Per-root ocall relay plumbing: dedicated rings + staging in host
     * memory, armed lazily on the first relayed ocall. An ocall can
     * surface from a tenant function mid-pump, so this map is kept
     * apart from the channel maps call() is iterating.
     */
    struct OcallChannel {
        DescRing req;
        DescRing resp;
        hw::Vaddr stagingVa = 0;
        std::uint64_t stagingBytes = 0;
    };

    sgx::Machine& machine();
    std::uint64_t now();

    /** Grabs a poller core from the top of the core space; -1-as-false
     *  when none is spare. */
    bool takeCore(hw::CoreId& out);
    void releaseCore(hw::CoreId core);

    bool armGateway(sdk::LoadedEnclave* outer);
    bool armMid(const std::vector<sdk::LoadedEnclave*>& prefix);
    bool armTenant(std::uint64_t key, const Endpoint& ep);
    void disarmGateway(GatewayChannel& gw);
    void disarmMid(sdk::LoadedEnclave* self);
    void unparkTenant(TenantChannel& ch);
    void unparkMid(MidChannel& mid);
    void unparkGateway(GatewayChannel& gw);

    /** Re-enters an AEX'd parked poller (ERESUME); false -> disarm. */
    bool resumeTenant(TenantChannel& ch);
    bool resumeMid(MidChannel& mid);
    bool resumeGateway(GatewayChannel& gw);

    /** The mid channels ch's chain passes through, root-side first. */
    std::vector<MidChannel*> midsFor(const TenantChannel& ch);

    /** Idle-fallback check for one tenant channel + its chain root. */
    void idleCheck(std::uint64_t key, TenantChannel& ch);

    /**
     * The in-enclave middle of a call: each relay hop's poller drains
     * its own ring and forwards one hop deeper (root poller first, then
     * every mid in chain order), the leaf poller serves without a
     * transition, and the response is relayed back up hop by hop onto
     * the host-facing ring. A depth-2 chain has no mids and reduces
     * exactly to the two-tier pump this generalises.
     */
    Status pumpEnclaveSide(TenantChannel& ch, GatewayChannel& gw,
                           const std::vector<MidChannel*>& mids,
                           const Endpoint& ep, std::uint64_t reqId);

    sdk::Urts& urts_;
    Config config_;
    EngineStats stats_;
    std::map<sdk::LoadedEnclave*, GatewayChannel> gateways_;
    std::map<sdk::LoadedEnclave*, MidChannel> mids_;
    std::map<std::uint64_t, TenantChannel> tenants_;
    std::vector<hw::CoreId> freeCores_;
    hw::CoreId nextHighCore_ = 0;
    bool coresInit_ = false;
    std::uint64_t nextRequestId_ = 1;
    /** Ocall relay channels, keyed by chain-root enclave. */
    std::map<sdk::LoadedEnclave*, OcallChannel> ocallChannels_;
};

}  // namespace nesgx::switchless
