/**
 * SwitchlessEngine: the exit-less call layer.
 *
 * Classic serving pays two transition pairs per dispatch: EENTER/EEXIT
 * into the gateway outer and NEENTER/NEEXIT into the tenant inner. This
 * engine eliminates both from the steady-state request path:
 *
 *   the root hop (host <-> chain root): descriptor rings + a staging
 *     buffer in host-shared *untrusted* memory. A poller core is parked
 *     inside the root (one initial EENTER) and services the ring from
 *     enclave mode — enclave code may legally read/write untrusted
 *     memory, so no exit is needed.
 *
 *   every deeper hop (parent <-> child, down to the serving leaf):
 *     rings + staging in the *parent's trusted heap*. A poller core is
 *     parked inside the child (one initial EENTER + one NEENTER per
 *     link); nested enclaves reach ancestor-heap pages through the
 *     nested-EPCM outer-closure walk (paper Fig. 6), so again no
 *     transition.
 *
 * All hops are one record with one arm/park/resume/unpark/disarm path;
 * only where the rings live differs.
 *
 * A request then flows host -> root -> ... -> leaf and back entirely
 * through memory: post, poll, drain. Steady-state transitions per
 * request -> 0; the only classic entries left are (re-)arming and idle
 * fallback — a poller whose rings stay empty past `idleParkCycles`
 * gives the core back (EEXIT/NEEXIT out) and the next request re-parks
 * it with classic entries. Transitions therefore scale with *idleness*,
 * not with load.
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
    /** Host-side staging buffer per chain-root hop (bytes). */
    std::uint64_t hostStagingBytes = 16 * 1024;
    /** Parent-heap staging buffer per deeper hop (bytes). */
    std::uint64_t gwStagingBytes = 16 * 1024;
};

/** Per-call routing, resolved by the caller (serve layer). */
struct Endpoint {
    /**
     * Ancestor chain, root first, serving leaf last (size >= 2). The
     * engine arms one relay hop per parent link — the root's rings in
     * host memory, every deeper hop's in its parent's trusted heap —
     * with a poller parked at each depth, plus the leaf's own hop.
     */
    std::vector<sdk::LoadedEnclave*> chain;
    /** Leaf n_ecall the parked poller dispatches to. */
    std::string innerCall;
    /** Caller slot id; every relay hop cross-checks it against the
     *  payload header before forwarding (defense in depth). */
    std::uint32_t slot = 0;
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

    const EngineStats& engineStats() const { return stats_; }

    /**
     * True when a switchless channel is armed (arming it now if needed)
     * for `key` over `ep`. False — caller uses the classic path — when
     * arming failed (no spare core, heap or TCS); arming failure is
     * degradation, never an error, and releases every relay hop the
     * attempt left without a rider.
     */
    bool ready(std::uint64_t key, const Endpoint& ep);

    /**
     * Pumps one request blob down every ring hop and returns the
     * response bytes, exactly as the classic gw_dispatch ecall would.
     * Requires a `ready()` channel. Errors surface with the same typed
     * codes the classic path uses, so the caller's retry/breaker/rebuild
     * machinery applies unchanged.
     */
    Result<Bytes> call(std::uint64_t key, const Endpoint& ep, ByteView blob,
                       hw::CoreId hostCore);

    /**
     * Tears down `key`'s channel: abandons in-flight ring entries
     * (SwitchlessFallback — never a silent drop), unparks the leaf
     * poller and frees its parent-heap staging, then releases every
     * deeper relay hop it was the last rider of. Must run before the
     * leaf is rebuilt or unloaded.
     */
    void disarm(std::uint64_t key);

    /**
     * Disarms the relay hop whose poller is parked in `enclave` (a
     * chain root stays parked across rider churn). Must run, after its
     * riders are disarmed, before `enclave` is torn down.
     */
    void disarmRelay(sdk::LoadedEnclave* enclave);

    /** Disarms every channel, then every relay hop. */
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
     * effects) when the rings cannot be mapped or the argument does not
     * fit; the SDK then falls back to the classic EEXIT/EENTER path.
     */
    std::optional<Result<Bytes>> relayOcall(sdk::LoadedEnclave& enclave,
                                            hw::CoreId core,
                                            const std::string& name,
                                            const sdk::UntrustedFn& fn,
                                            ByteView arg) override;

  private:
    /**
     * One hop of a chain: a request/response ring pair plus a staging
     * buffer, served by a poller parked down `prefix`. Relay hops are
     * shared by every channel whose chain passes through them and
     * counted in `riders`; each channel's leaf hop is its own. Ocall
     * rings reuse the record without a poller.
     */
    struct Hop {
        /** Chain root .. this hop's enclave; the poller parks at the
         *  end. */
        std::vector<sdk::LoadedEnclave*> prefix;
        DescRing req;
        DescRing resp;
        hw::Vaddr ringReqVa = 0;
        hw::Vaddr ringRespVa = 0;
        hw::Vaddr stagingVa = 0;
        hw::CoreId pollerCore = 0;
        /** Park TCSes, bottom (chain root) first. */
        std::vector<hw::Paddr> parkTcses;
        bool parked = false;
        std::uint64_t lastActive = 0;
        std::uint64_t riders = 0;  ///< channels riding this relay hop
        /** Injected poller-wedge (leaf hops): posts land but nothing
         *  drains. The channel stays armed and every call fails typed
         *  until a disarm (supervisor kick) tears it down. */
        bool wedged = false;

        /** Heap owner of the rings: the parent of this hop's enclave,
         *  or nullptr when they live in host memory (the chain root). */
        sdk::LoadedEnclave* ringHost() const
        {
            return prefix.size() >= 2 ? prefix[prefix.size() - 2] : nullptr;
        }
    };

    sgx::Machine& machine();
    std::uint64_t now();

    /** Grabs a poller core from the top of the core space; false when
     *  none is spare. */
    bool takeCore(hw::CoreId& out);
    void releaseCore(hw::CoreId core);

    /** Maps a host-memory hop's two rings and staging buffer. */
    bool mapHostRings(Hop& hop);
    Status initRings(Hop& hop, hw::CoreId core);

    /** Places `hop`'s rings and parks a fresh poller for it. */
    bool arm(Hop& hop);
    /** EENTERs the chain root on `core`, then NEENTERs down the prefix.
     *  A `fresh` park also touches every enclave it enters and
     *  initialises the rings when the core sits in their host. */
    bool park(Hop& hop, hw::CoreId core, bool fresh);
    /** Re-enters an AEX'd parked poller (ERESUME); false -> disarm. */
    bool resume(Hop& hop);
    void unpark(Hop& hop);
    /** Abandons the hop's rings, unparks it and frees its heap rings. */
    void disarmHop(Hop& hop);
    void freeHeapRings(Hop& hop);
    /** Staging capacity of `hop`: host memory or parent heap. */
    std::uint64_t stagingCap(const Hop& hop) const;
    /** Drops one rider (when `leaving`) from each relay hop of `chain`,
     *  deepest first, and disarms every deeper hop left riderless. */
    void releaseRelays(const std::vector<sdk::LoadedEnclave*>& chain,
                       bool leaving);
    /** Idle fallback for one hop: unpark, then re-park on a fresh core. */
    void idleCheck(Hop& hop, std::uint64_t t);

    /**
     * The in-enclave middle of a call over `path` (root first, leaf
     * last): each relay hop's poller drains its own ring and forwards
     * one hop deeper, the leaf poller serves without a transition, and
     * the response is relayed back up hop by hop onto the host-facing
     * ring.
     */
    Status pumpEnclaveSide(const std::vector<Hop*>& path, const Endpoint& ep,
                           std::uint64_t reqId);

    sdk::Urts& urts_;
    Config config_;
    EngineStats stats_;
    /** Relay hops, keyed by the enclave their poller parks in. */
    std::map<sdk::LoadedEnclave*, Hop> relays_;
    /** Leaf hops, keyed by caller key. */
    std::map<std::uint64_t, Hop> leaves_;
    /**
     * Per-root ocall rings in host memory, armed lazily on the first
     * relayed ocall. An ocall can surface from a leaf function mid-pump,
     * so this map is kept apart from the hop maps call() is using.
     */
    std::map<sdk::LoadedEnclave*, Hop> ocallRings_;
    std::vector<hw::CoreId> freeCores_;
    hw::CoreId nextHighCore_ = 0;
    bool coresInit_ = false;
    std::uint64_t nextRequestId_ = 1;
};

}  // namespace nesgx::switchless
