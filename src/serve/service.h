/**
 * The serving layer's top half: EPC pressure management, the worker
 * pool, and the TenantService facade gluing registry + admission +
 * scheduling together.
 *
 * EpcPressureManager keeps the EPC free list above a watermark by
 * paging out the coldest *idle* tenant inner (victims come from the
 * kernel's deterministic LRU, filtered to tenant inners that have no
 * dispatch in flight). TenantRegistry reloads transparently on the
 * victim's next request, so tenants far beyond EPC capacity stay
 * correct — they just pay cold-start reload latency.
 *
 * WorkerPool drains the admission queues batch-at-a-time across the
 * machine's cores: one batch = one EENTER + one NEENTER no matter how
 * many requests it carries, which is the transition amortization
 * bench_serve measures.
 *
 * The pool is also where the stack self-heals (DESIGN.md §11): every
 * dispatch failure is classified — *poisoned* errors (paging
 * integrity, lost EPC pages) destroy and rebuild the tenant's inner,
 * *transient* ones retry under a capped budget, and a per-tenant
 * circuit breaker quarantines tenants that keep failing so the rest of
 * the fleet is not starved by a broken one.
 */
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "attest/verifier.h"
#include "serve/admission.h"
#include "serve/histogram.h"
#include "serve/registry.h"
#include "switchless/engine.h"

namespace nesgx::serve {

class EpcPressureManager {
  public:
    struct Config {
        /** Free-page watermark `relieve` restores after each batch. */
        std::size_t lowWatermarkPages = 32;
    };

    EpcPressureManager(os::Kernel& kernel, TenantRegistry& registry,
                       Config config)
        : kernel_(&kernel), registry_(&registry), config_(config)
    {
    }

    /** Evicts cold idle tenants until at least `pages` EPC pages are
     *  free; OsError when demand cannot be met. */
    Status ensureFree(std::uint64_t pages);

    /** Restores the watermark. A miss (every evictable tenant pinned or
     *  already out) is survivable — the next build pays reserveEpc — but
     *  it is counted, logged, and published, never swallowed. */
    void relieve();

    std::uint64_t tenantsEvicted() const { return tenantsEvicted_; }
    std::uint64_t pagesWritten() const { return pagesWritten_; }
    std::uint64_t watermarkMisses() const { return watermarkMisses_; }

  private:
    os::Kernel* kernel_;
    TenantRegistry* registry_;
    Config config_;
    /** Relaxed atomics: every worker thread relieves pressure after its
     *  own batches, so the eviction accounting races benignly. */
    Counter tenantsEvicted_;
    Counter pagesWritten_;
    Counter watermarkMisses_;
};

struct Completion {
    std::uint64_t id = 0;
    TenantId tenant = 0;
    Bytes sealedResponse;          ///< empty when the server refused it
    std::uint64_t latencyCycles = 0;
    bool ok = false;
    /** Why `ok` is false: the dispatch error after retries, SealRejected
     *  for a per-request refusal, Unavailable for breaker/rebuild
     *  quarantine. Ok iff `ok` is true. */
    Status status;
    /** The tenant's inner was (or is being) rebuilt while this request
     *  was in flight: the client must reseal from a fresh sequence. */
    bool tenantRebuilt = false;

    Err error() const { return status.code(); }
};

class WorkerPool {
  public:
    struct Config {
        std::size_t batchSize = 8;
        /** Cores to schedule dispatches on; 0 = all machine cores. */
        std::uint32_t cores = 0;
        /** Extra dispatch attempts for transient failures (0 = none). */
        std::uint32_t maxRetries = 2;
        /** Consecutive failed batches before the tenant's breaker opens. */
        std::uint32_t breakerThreshold = 4;
        /** Cooldown before an open breaker admits a half-open probe. */
        std::uint64_t breakerCooldownCycles = 200000;
        /** OS worker threads for runParallel (1 = the serial step()
         *  loop, byte-identical to the historical single-thread path). */
        std::size_t threads = 1;
    };

    WorkerPool(TenantRegistry& registry, AdmissionController& admission,
               EpcPressureManager& pressure, Config config);

    /** Serves one tenant batch (round-robin); false when queues are
     *  empty. Shedding counts as progress. */
    bool step();

    /**
     * Drains the queues with `threads` real OS worker threads (0 = the
     * configured default). Thread t pins simulated core t and owns every
     * tenant whose gateway index hashes to it, so one gateway's staging
     * heap and TCSes are only ever driven by one thread and a tenant's
     * batches keep their seal-sequence order. threads <= 1 falls back to
     * the serial step() loop — byte-identical traces. Returns batches
     * (steps) processed. All tenants must exist before this is called;
     * enable the trace bus's parallel mode first when a sink listens.
     */
    std::size_t runParallel(std::size_t threads = 0);

    /** Completed requests since the last drain. */
    std::vector<Completion> drain();

    /** Routes dispatches through the switchless engine when armed;
     *  nullptr reverts to classic ecall dispatch. Not owned. */
    void setSwitchless(switchless::SwitchlessEngine* engine)
    {
        engine_ = engine;
    }

    /** Supervisor entry (escalation ladder's tenant-rebuild rung): owns
     *  the tenant's lock for the whole destroy-and-rebuild, exactly like
     *  the in-batch recovery path. */
    Status rebuildTenant(TenantHandle& tenant);

    /** Supervisor entry (subtree-rebuild rung): disarms every member's
     *  switchless channel, fails their queued requests typed, then
     *  rebuilds the whole gateway subtree bottom-up. */
    Status rebuildSubtree(std::size_t gatewayIndex);

    std::uint64_t batchesDispatched() const { return batches_; }
    std::uint64_t requestsServed() const { return served_; }
    std::uint64_t dispatchFailures() const { return dispatchFailures_; }
    std::uint64_t retries() const { return retries_; }
    std::uint64_t rebuilds() const { return rebuilds_; }
    /** Whole-gateway-subtree rebuilds (Cvm topology escalation). */
    std::uint64_t subtreeRebuilds() const { return subtreeRebuilds_; }
    std::uint64_t breakerOpens() const { return breakerOpens_; }
    std::uint64_t breakerCloses() const { return breakerCloses_; }
    bool breakerOpen(TenantId tenant) const;
    const Histogram& rebuildLatency() const { return rebuildLatency_; }

  private:
    /** Per-tenant circuit breaker (DESIGN.md §11 state machine). The
     *  fields are written only by the tenant's owning worker thread, but
     *  the supervisor reads them from its own thread (breakerOpen), so
     *  they are relaxed atomics rather than plain ints. */
    struct Breaker {
        Counter consecutiveFailures;
        std::atomic<bool> open{false};
        std::atomic<std::uint64_t> probeAt{0};  ///< cycles; half-open gate
    };

    /** Destroys and rebuilds a poisoned tenant: fails its whole queue
     *  typed (the seals target the dead instance) and times the rebuild.
     *  On failure the tenant stays inner-less and is retried lazily.
     *  Under the Cvm topology a tenant-level rebuild that fails
     *  escalates to rebuildGatewaySubtree — the gateway layer itself may
     *  be the casualty. */
    Status rebuildTenantNow(TenantHandle& tenant);

    /** Fails `tenantId`'s queued requests typed with the rebuilt flag
     *  (the seals target an instance that is being destroyed). */
    void failQueuedRebuilt(TenantId tenantId);

    /** One batched dispatch: through the armed switchless channel when
     *  available, classic gateway ecall otherwise. */
    Result<Bytes> dispatchVia(TenantHandle& tenant, ByteView blob,
                              hw::CoreId core);

    /** Takes + serves one batch for `tenantId`: shed completions, the
     *  breaker gate, the retry loop, completion delivery, then pressure
     *  relief. `haveFixedCore` pins the dispatch core (parallel workers);
     *  otherwise the historical round-robin picks per attempt. */
    void processTenant(TenantId tenantId, hw::CoreId fixedCore,
                       bool haveFixedCore);

    /** The locked middle of processTenant: everything from the breaker
     *  gate through breaker bookkeeping, under the tenant's own lock. */
    void serveBatch(TenantHandle& tenant, std::vector<Request> batch,
                    hw::CoreId fixedCore, bool haveFixedCore);

    /** Serial-mode round-robin core pick (single-thread only). */
    hw::CoreId pickCore();

    /** Per-tenant breaker slot; std::map node, so the reference stays
     *  valid while other threads insert their own tenants' slots. */
    Breaker& breakerFor(TenantId tenant);

    TenantRegistry* registry_;
    switchless::SwitchlessEngine* engine_ = nullptr;
    AdmissionController* admission_;
    EpcPressureManager* pressure_;
    Config config_;
    hw::CoreId nextCore_ = 0;
    /** Completions are pushed by every worker and swapped out by drain. */
    mutable std::mutex completionsM_;
    std::vector<Completion> completions_;
    /** Guards only the breaker map's structure; each Breaker's fields are
     *  owned by the tenant's single worker thread (partitioning). */
    mutable std::mutex breakersM_;
    std::map<TenantId, Breaker> breakers_;
    mutable std::mutex rebuildM_;  ///< rebuildLatency_ sample inserts
    Histogram rebuildLatency_;
    Counter batches_;
    Counter served_;
    Counter dispatchFailures_;
    Counter retries_;
    Counter rebuilds_;
    Counter subtreeRebuilds_;
    Counter breakerOpens_;
    Counter breakerCloses_;
};

/** The whole serving stack behind one object. */
class TenantService {
  public:
    struct Config {
        TenantRegistry::Config registry;
        AdmissionController::Config admission;
        WorkerPool::Config pool;
        EpcPressureManager::Config pressure;
        /** Exit-less dispatch (src/switchless). Off by default so the
         *  classic trace/counter streams stay byte-identical. */
        switchless::Config switchless;
        /**
         * NEREPORT-gated onboarding (src/attest): addTenant admits a
         * tenant only after its evidence chain verifies — inner identity,
         * author signer, gateway-outer binding, topology-implied chain
         * depth, nonce freshness, and EGETKEY-rooted session-key binding.
         * Off = the legacy faith-based admission with out-of-band keys.
         */
        bool attestOnboarding = false;
        std::uint64_t attestNonceSeed = 0x0a77e57;
        /** Override of the chain depth the verifier demands (tests/CI
         *  prove end-to-end refusal on a topology/depth mismatch). */
        std::optional<std::uint32_t> attestDepthOverride;

        /** Err::InvalidConfig when the service could never make
         *  progress: a zero batch size dispatches nothing, and a zero
         *  queue depth refuses every submit with Backpressure forever. */
        Status validate() const;
    };

    TenantService(sdk::Urts& urts, Config config);

    /** Lazily instantiates the tenant (registry + pressure headroom).
     *  Under attestOnboarding the tenant is admitted only after NEREPORT
     *  chain verification; a failed verification tears the instance back
     *  down and returns Err::AttestationFailed. */
    Result<TenantHandle*> addTenant(TenantId id, Workload workload);

    /** Attestation-gated onboarding active? (Migration re-attests.) */
    bool attestationEnabled() const { return config_.attestOnboarding; }

    /** The tenant's EGETKEY-rooted session key (empty = never attested:
     *  the client should fall back to the out-of-band tenantKey). */
    Bytes sessionKeyFor(TenantId id) const;

    /**
     * Challenges `inner` (freshly built, associated, and reachable via
     * its ancestor chain) and verifies the evidence against this
     * service's policy for tenant `id` hosted by gateway `gatewayIndex`.
     * On success the session key is recorded. Used at onboarding and by
     * the migration engine to re-attest a staged destination instance.
     */
    attest::Verdict attestInner(sdk::LoadedEnclave* inner, TenantId id,
                                std::size_t gatewayIndex);

    /** Disarms, purges, forgets, and unloads a tenant (onboarding
     *  rejection or the source half of a cross-host move). */
    Status removeTenant(TenantId id);

    /** Admits one sealed request for an existing tenant. */
    Status submit(TenantId tenant, Bytes sealed);

    /** What an epoch-fenced client resolves before stamping requests. */
    struct Placement {
        std::uint64_t epoch = 0;        ///< 0 = tenant unknown here
        std::uint64_t incarnation = 0;  ///< bumps only on state loss
    };

    /** Current placement of a tenant ({0, 0} when unknown). */
    Placement placement(TenantId id);

    /**
     * Epoch-fenced admission: `stamped` is stampEpoch(epoch, sealed) —
     * a host-side [u64 epoch LE] prefix the server strips before the
     * sealed bytes ever reach an enclave (machine-visible traffic stays
     * byte-identical to the unfenced path). A stale epoch refuses with
     * Err::WrongEpoch: the redirect telling the client to re-resolve
     * placement and reseal/restamp. Plain submit() stays unfenced.
     */
    Status submitStamped(TenantId tenant, Bytes stamped);

    /** Runs worker steps until the queues drain (or maxBatches). */
    std::size_t pump(std::size_t maxBatches = std::size_t(-1));

    /** Drains the queues with real OS worker threads (see
     *  WorkerPool::runParallel); threads <= 1 is the serial pump. */
    std::size_t pumpParallel(std::size_t threads)
    {
        return pool_.runParallel(threads);
    }

    std::vector<Completion> drain() { return pool_.drain(); }

    /**
     * Parks switchless pollers for every existing tenant up front (one
     * classic EENTER/NEENTER each) so the steady-state request path is
     * transition-free from the first batch. Returns channels armed; 0
     * when switchless is disabled. Arming failures degrade to classic
     * dispatch, they are never errors.
     */
    std::size_t armSwitchless();

    TenantRegistry& registry() { return registry_; }
    AdmissionController& admission() { return admission_; }
    EpcPressureManager& pressure() { return pressure_; }
    WorkerPool& pool() { return pool_; }
    switchless::SwitchlessEngine* switchlessEngine()
    {
        return switchless_.get();
    }

  private:
    static Config tuned(Config config);

    Config config_;  ///< tuned copy; must precede the members built from it
    TenantRegistry registry_;
    AdmissionController admission_;
    EpcPressureManager pressure_;
    WorkerPool pool_;
    std::unique_ptr<switchless::SwitchlessEngine> switchless_;
    std::unique_ptr<attest::TenantVerifier> verifier_;
    /** Session keys recorded by attestInner (service-side copy handed to
     *  clients; the authoritative copy lives inside the inner). */
    std::map<TenantId, Bytes> sessionKeys_;
};

}  // namespace nesgx::serve
