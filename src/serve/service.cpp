#include "serve/service.h"

#include <algorithm>
#include <set>
#include <thread>

#include "support/logging.h"

namespace nesgx::serve {

namespace {

/** Errors that mean the tenant's inner enclave state can no longer be
 *  trusted or reached: a retry against the same instance is pointless,
 *  only destroy-and-rebuild recovers. */
bool
poisonedStatus(Status st)
{
    switch (st.code()) {
      case Err::PagingIntegrity:
      case Err::InvalidEpcPage:
      case Err::PageFault:
        return true;
      default:
        return false;
    }
}

}  // namespace

Status
EpcPressureManager::ensureFree(std::uint64_t pages)
{
    // Tenants whose eviction freed nothing this round (fully pinned):
    // excluded so the loop cannot spin on them.
    std::set<hw::Paddr> barren;
    while (kernel_->freeEpcPages() < pages) {
        auto victim = kernel_->pickEvictVictim([&](hw::Paddr secs) {
            if (barren.count(secs)) return false;
            TenantHandle* tenant = registry_->tenantBySecs(secs);
            return tenant != nullptr && !tenant->busy;
        });
        if (!victim) return Err::OsError;
        TenantHandle* tenant = registry_->tenantBySecs(victim.value());
        std::uint64_t written = registry_->evictTenant(*tenant);
        if (written == 0) {
            barren.insert(victim.value());
            continue;
        }
        ++tenantsEvicted_;
        pagesWritten_ += written;
    }
    return Status::ok();
}

void
EpcPressureManager::relieve()
{
    Status st = ensureFree(config_.lowWatermarkPages);
    if (st) return;
    ++watermarkMisses_;
    const std::uint64_t free = kernel_->freeEpcPages();
    NESGX_WARN << "epc pressure: watermark miss ("
               << config_.lowWatermarkPages << " wanted, " << free
               << " free, " << st.name() << ")";
    registry_->urts().machine().trace().publishLight(
        trace::EventKind::ServeWatermarkMiss, trace::kNoCore, 0,
        config_.lowWatermarkPages, free);
}

WorkerPool::WorkerPool(TenantRegistry& registry,
                       AdmissionController& admission,
                       EpcPressureManager& pressure, Config config)
    : registry_(&registry), admission_(&admission), pressure_(&pressure),
      config_(config)
{
    if (config_.cores == 0) {
        config_.cores = registry.urts().machine().coreCount();
    }
}

bool
WorkerPool::breakerOpen(TenantId tenant) const
{
    std::lock_guard<std::mutex> g(breakersM_);
    auto it = breakers_.find(tenant);
    return it != breakers_.end() && it->second.open;
}

WorkerPool::Breaker&
WorkerPool::breakerFor(TenantId tenant)
{
    std::lock_guard<std::mutex> g(breakersM_);
    return breakers_[tenant];
}

void
WorkerPool::failQueuedRebuilt(TenantId tenantId)
{
    sgx::Machine& machine = registry_->urts().machine();
    std::lock_guard<std::mutex> c(completionsM_);
    for (Request& r : admission_->purge(tenantId)) {
        Completion done;
        done.id = r.id;
        done.tenant = r.tenant;
        done.latencyCycles = machine.clock().cycles() - r.enqueuedAt;
        done.status = Err::Unavailable;
        done.tenantRebuilt = true;
        completions_.push_back(std::move(done));
    }
}

Status
WorkerPool::rebuildTenantNow(TenantHandle& tenant)
{
    sgx::Machine& machine = registry_->urts().machine();
    // The switchless channel's poller is parked inside the inner that is
    // about to be destroyed: drain-or-poison its rings and unpark it
    // first, or EREMOVE would refuse the busy TCS pages forever.
    if (engine_) engine_->disarm(tenant.id);
    // Everything the tenant still has queued was sealed against the
    // poisoned instance; fail it typed so the client reseals against
    // the rebuilt server instead of replaying stale sequence numbers.
    failQueuedRebuilt(tenant.id);
    const std::uint64_t begin = machine.clock().cycles();
    Status st = registry_->rebuildTenant(tenant);
    if (!st && registry_->topology() == Topology::Cvm) {
        // Cvm escalation: the tenant refused to come back on its own —
        // the gateway layer itself may be the casualty, so rebuild the
        // whole subtree. Sibling tenants' pollers and queued requests
        // ride on instances about to be destroyed; disarm and fail them
        // typed first, exactly like the caller's own.
        for (const auto& [id, sibling] : registry_->tenants()) {
            if (sibling->gatewayIndex != tenant.gatewayIndex ||
                sibling.get() == &tenant) {
                continue;
            }
            if (engine_) engine_->disarm(id);
            failQueuedRebuilt(id);
        }
        st = registry_->rebuildGatewaySubtree(tenant.gatewayIndex, &tenant);
        ++subtreeRebuilds_;
        machine.trace().publishLight(trace::EventKind::ServeTenantRebuild,
                                     trace::kNoCore, 0, tenant.id,
                                     tenant.gatewayIndex);
    }
    {
        std::lock_guard<std::mutex> h(rebuildM_);
        rebuildLatency_.add(machine.clock().cycles() - begin);
    }
    ++rebuilds_;
    return st;
}

Status
WorkerPool::rebuildTenant(TenantHandle& tenant)
{
    std::lock_guard<std::mutex> own(tenant.m);
    return rebuildTenantNow(tenant);
}

Status
WorkerPool::rebuildSubtree(std::size_t gatewayIndex)
{
    sgx::Machine& machine = registry_->urts().machine();
    const std::uint64_t begin = machine.clock().cycles();
    // Every member's poller parks inside an instance about to be torn
    // down, and every queued request was sealed against one: disarm and
    // fail typed first, same contract as the in-batch Cvm escalation.
    for (const auto& [id, member] : registry_->tenants()) {
        if (member->gatewayIndex != gatewayIndex) continue;
        if (engine_) engine_->disarm(id);
        failQueuedRebuilt(id);
    }
    Status st = registry_->rebuildGatewaySubtree(gatewayIndex);
    ++subtreeRebuilds_;
    {
        std::lock_guard<std::mutex> h(rebuildM_);
        rebuildLatency_.add(machine.clock().cycles() - begin);
    }
    return st;
}

Result<Bytes>
WorkerPool::dispatchVia(TenantHandle& tenant, ByteView blob, hw::CoreId core)
{
    if (engine_ != nullptr && tenant.inner != nullptr) {
        switchless::Endpoint ep;
        ep.outer = registry_->gatewayOuter(tenant.gatewayIndex);
        ep.inner = tenant.inner;
        ep.innerCall = "serve_batch";
        ep.slot = tenant.slot;
        // Cvm topology: route rings through the full ancestor chain
        // (empty chain = the classic two-tier shape, flat unchanged).
        ep.chain = registry_->dispatchChain(tenant);
        if (engine_->ready(tenant.id, ep)) {
            return engine_->call(tenant.id, ep, blob, core);
        }
        // Arming failed (cores/TCSes/heap exhausted): degrade to the
        // classic transition-paying path, never refuse the batch.
    }
    return registry_->dispatch(tenant, blob, core);
}

bool
WorkerPool::step()
{
    auto tenantId = admission_->nextTenant();
    if (!tenantId) return false;
    processTenant(*tenantId, 0, false);
    return true;
}

hw::CoreId
WorkerPool::pickCore()
{
    const hw::CoreId core = nextCore_;
    nextCore_ = (nextCore_ + 1) % config_.cores;
    return core;
}

void
WorkerPool::processTenant(TenantId tenantId, hw::CoreId fixedCore,
                          bool haveFixedCore)
{
    sgx::Machine& machine = registry_->urts().machine();

    std::vector<Request> shedRequests;
    std::vector<Request> batch =
        admission_->takeBatch(tenantId, config_.batchSize, &shedRequests);

    // Shed requests complete typed — the client sees Err::Deadline, not
    // silence — even (especially) when every entry at the head expired
    // and the batch below is empty.
    if (!shedRequests.empty()) {
        const std::uint64_t shedNow = machine.clock().cycles();
        std::lock_guard<std::mutex> c(completionsM_);
        for (Request& r : shedRequests) {
            Completion done;
            done.id = r.id;
            done.tenant = r.tenant;
            done.latencyCycles = shedNow - r.enqueuedAt;
            done.status = Err::Deadline;
            completions_.push_back(std::move(done));
        }
    }
    if (batch.empty()) return;  // everything at the head was shed

    TenantHandle* tenant = registry_->find(tenantId);
    if (!tenant) return;  // submit() guarantees existence

    serveBatch(*tenant, std::move(batch), fixedCore, haveFixedCore);

    // Restore the EPC watermark before the next tenant needs pages.
    pressure_->relieve();
}

void
WorkerPool::serveBatch(TenantHandle& tenant, std::vector<Request> batch,
                       hw::CoreId fixedCore, bool haveFixedCore)
{
    sgx::Machine& machine = registry_->urts().machine();

    // Own the tenant for the whole attempt: residency, dispatch and
    // rebuild all happen under this lock, so the pressure manager (which
    // only try_locks from evictTenant) can never page out a tenant that
    // is mid-batch on another thread.
    std::lock_guard<std::mutex> own(tenant.m);

    auto failBatchTyped = [&](Status st, bool rebuiltFlag) {
        const std::uint64_t now = machine.clock().cycles();
        std::lock_guard<std::mutex> c(completionsM_);
        for (Request& r : batch) {
            Completion done;
            done.id = r.id;
            done.tenant = r.tenant;
            done.latencyCycles = now - r.enqueuedAt;
            done.status = st;
            done.tenantRebuilt = rebuiltFlag;
            completions_.push_back(std::move(done));
        }
    };

    // Circuit breaker: while open, refuse the batch outright unless the
    // cooldown has elapsed — then exactly this batch goes through as the
    // half-open probe.
    Breaker& breaker = breakerFor(tenant.id);
    if (breaker.open) {
        bool probeDue = false;
#ifndef NESGX_BUG_BREAKER_STUCK
        probeDue = machine.clock().cycles() >= breaker.probeAt;
#endif
        if (!probeDue) {
            failBatchTyped(Err::Unavailable, false);
            return;
        }
    }

    Status finalStatus = Err::Unavailable;
    std::vector<Bytes> responses;
    bool dispatched = false;
    bool rebuilt = false;

    for (std::uint32_t attempt = 0; attempt <= config_.maxRetries;
         ++attempt) {
        if (attempt > 0) {
            ++retries_;
            machine.trace().publishLight(trace::EventKind::ServeRetry,
                                         trace::kNoCore, 0, tenant.id,
                                         attempt);
        }

        // A previous rebuild died half-way (e.g. the EPC allocator
        // refused mid-build): the tenant is inner-less until a build
        // succeeds. Keep trying under the same retry budget.
        if (!tenant.inner) {
            rebuilt = true;
            Status st = rebuildTenantNow(tenant);
            if (!st) {
                finalStatus = st;
                continue;
            }
        }

        // Transparent cold start: page the inner back in before
        // entering. Pinned (`busy`) so the pressure manager cannot pick
        // this tenant as an eviction victim mid-reload.
        tenant.busy = true;
        auto resident = registry_->ensureResident(tenant);
        tenant.busy = false;
        if (!resident) {
            finalStatus = resident.status();
            if (poisonedStatus(finalStatus)) {
                rebuilt = true;
                (void)rebuildTenantNow(tenant);
                break;  // seals target the dead instance: no redispatch
            }
            continue;
        }

        const hw::CoreId core = haveFixedCore ? fixedCore : pickCore();

        std::vector<ByteView> views;
        views.reserve(batch.size());
        for (const Request& req : batch) views.push_back(req.sealed);
        Bytes blob = packBatch(tenant.slot, views);

        trace::TraceEvent begin;
        begin.kind = trace::EventKind::ServeBatchBegin;
        begin.core = core;
        begin.arg0 = tenant.id;
        begin.arg1 = batch.size();
        machine.trace().publishIfActive(begin);

        tenant.busy = true;
        auto respBlob = dispatchVia(tenant, blob, core);
        tenant.busy = false;

        machine.trace().publishLight(trace::EventKind::ServeBatchEnd, core,
                                     0, tenant.id, batch.size());
        ++batches_;

        if (!respBlob) {
            finalStatus = respBlob.status();
            if (poisonedStatus(finalStatus)) {
                rebuilt = true;
                (void)rebuildTenantNow(tenant);
                break;
            }
            continue;
        }
        auto parsed = parseResponses(respBlob.value());
        if (!parsed) {
            finalStatus = parsed.status();
            continue;
        }
        if (parsed.value().size() != batch.size()) {
            finalStatus = Err::BadCallBuffer;
            continue;
        }
        responses = std::move(parsed.value());
        dispatched = true;
        break;
    }

    const std::uint64_t now = machine.clock().cycles();
    if (dispatched) {
        std::lock_guard<std::mutex> c(completionsM_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Completion done;
            done.id = batch[i].id;
            done.tenant = batch[i].tenant;
            done.sealedResponse = std::move(responses[i]);
            done.latencyCycles = now - batch[i].enqueuedAt;
            done.ok = !done.sealedResponse.empty();
            // Deliberately NOT rebuilt-flagged: a batch that round-trips
            // after a lazy rebuild was sealed against the fresh instance
            // (the client resealed when the rebuild was first reported),
            // so telling the client to reset again would wipe the very
            // expectations these responses verify against.
            if (done.ok) {
                ++served_;
                ++tenant.okServed;  // supervisor liveness heartbeat
            } else {
                // The batch round-tripped but the server refused this
                // request (bad seal, or a sequence already consumed by a
                // partially-processed earlier attempt).
                done.status = Err::SealRejected;
            }
            completions_.push_back(std::move(done));
        }
    } else {
        ++dispatchFailures_;
        failBatchTyped(finalStatus, rebuilt);
    }

    // Breaker bookkeeping observes the batch outcome: any round trip
    // counts as healthy (per-request refusals are an auth decision, not
    // an infrastructure failure).
    if (dispatched) {
        breaker.consecutiveFailures = 0;
        if (breaker.open) {
            breaker.open = false;
            ++breakerCloses_;
            machine.trace().publishLight(trace::EventKind::ServeBreakerClose,
                                         trace::kNoCore, 0, tenant.id, 0);
        }
    } else {
        ++breaker.consecutiveFailures;
        if (!breaker.open &&
            breaker.consecutiveFailures >= config_.breakerThreshold) {
            breaker.open = true;
            breaker.probeAt =
                machine.clock().cycles() + config_.breakerCooldownCycles;
            ++breakerOpens_;
            machine.trace().publishLight(trace::EventKind::ServeBreakerOpen,
                                         trace::kNoCore, 0, tenant.id,
                                         breaker.consecutiveFailures);
        } else if (breaker.open) {
            // Failed half-open probe: stay open, re-arm the cooldown.
            breaker.probeAt =
                machine.clock().cycles() + config_.breakerCooldownCycles;
        }
    }
}

std::size_t
WorkerPool::runParallel(std::size_t threads)
{
    if (threads == 0) threads = config_.threads;
    if (threads <= 1) {
        // Serial fallback: the historical step() loop, same round-robin
        // core pick, same trace stream, byte for byte.
        std::size_t steps = 0;
        while (step()) ++steps;
        return steps;
    }
    threads = std::min<std::size_t>(threads, config_.cores);

    // Static ownership: worker t serves every tenant whose gateway index
    // hashes to t on simulated core t. Disjoint gateways mean disjoint
    // staging heaps and TCSes per thread; per-tenant FIFO falls out of
    // one tenant having exactly one server thread.
    std::vector<std::vector<TenantHandle*>> owned(threads);
    for (const auto& [id, tenant] : registry_->tenants()) {
        owned[tenant->gatewayIndex % threads].push_back(tenant.get());
    }

    os::Kernel& kernel = registry_->urts().kernel();
    const os::Pid pid = registry_->urts().pid();
    std::atomic<std::size_t> total{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([this, &owned, &kernel, &total, pid, t] {
            const hw::CoreId core = hw::CoreId(t);
            kernel.schedule(core, pid);
            std::size_t steps = 0;
            bool progress = true;
            while (progress) {
                progress = false;
                for (TenantHandle* tenant : owned[t]) {
                    if (admission_->depth(tenant->id) == 0) continue;
                    processTenant(tenant->id, core, true);
                    ++steps;
                    progress = true;
                }
            }
            total.fetch_add(steps, std::memory_order_relaxed);
        });
    }
    for (std::thread& w : workers) w.join();
    return total.load(std::memory_order_relaxed);
}

std::vector<Completion>
WorkerPool::drain()
{
    std::lock_guard<std::mutex> g(completionsM_);
    std::vector<Completion> out;
    out.swap(completions_);
    return out;
}

TenantService::Config
TenantService::tuned(Config config)
{
    // Attested onboarding implies the registry refuses dispatch to any
    // tenant that has not passed verification.
    if (config.attestOnboarding) config.registry.requireVerification = true;
    if (config.switchless.enabled) {
        // Parked pollers hold real TCSes: one outer slot for the gateway
        // poller plus one per tenant poller entering through the
        // gateway, with a spare each for the classic fallback path.
        config.registry.gatewayTcs =
            std::max(config.registry.gatewayTcs,
                     config.registry.tenantsPerOuter + 3);
        config.registry.innerTcs =
            std::max<std::uint32_t>(config.registry.innerTcs, 2);
        if (config.switchless.hostCores == 0) config.switchless.hostCores = 1;
        // Host workers keep the low cores; the engine takes poller cores
        // from the top of the core space.
        config.pool.cores = config.switchless.hostCores;
    }
    return config;
}

TenantService::TenantService(sdk::Urts& urts, Config config)
    : config_(tuned(std::move(config))),
      registry_(urts, config_.registry),
      admission_(urts.machine(), config_.admission),
      pressure_(urts.kernel(), registry_, config_.pressure),
      pool_(registry_, admission_, pressure_, config_.pool)
{
    registry_.setEpcReserve(
        [this](std::uint64_t pages) { return pressure_.ensureFree(pages); });
    if (config_.switchless.enabled) {
        switchless_ = std::make_unique<switchless::SwitchlessEngine>(
            urts, config_.switchless);
        pool_.setSwitchless(switchless_.get());
    }
    if (config_.attestOnboarding) {
        verifier_ = std::make_unique<attest::TenantVerifier>(
            urts.machine(), config_.attestNonceSeed);
    }
}

Status
TenantService::Config::validate() const
{
    if (pool.batchSize == 0 || admission.maxQueueDepth == 0) {
        return Err::InvalidConfig;
    }
    return Status::ok();
}

std::size_t
TenantService::armSwitchless()
{
    if (!switchless_) return 0;
    std::size_t armed = 0;
    for (const auto& [id, tenant] : registry_.tenants()) {
        if (!tenant->inner) continue;
        switchless::Endpoint ep;
        ep.outer = registry_.gatewayOuter(tenant->gatewayIndex);
        ep.inner = tenant->inner;
        ep.innerCall = "serve_batch";
        ep.slot = tenant->slot;
        ep.chain = registry_.dispatchChain(*tenant);
        if (switchless_->ready(id, ep)) ++armed;
    }
    return armed;
}

attest::Verdict
TenantService::attestInner(sdk::LoadedEnclave* inner, TenantId id,
                           std::size_t gatewayIndex)
{
    attest::Verdict verdict;
    if (!verifier_ || !inner) return verdict;  // untrusted by default

    const Bytes nonce = verifier_->nextNonce();
    auto evidence =
        registry_.provisionInner(inner, verifier_->measurement(), nonce);
    if (TenantHandle* tenant = registry_.find(id)) {
        // The provisioning entry ran (even if the evidence is later
        // rejected): the instance now holds a derived session key, and
        // rebuilds must re-run it.
        if (evidence) tenant->provisioned = true;
    }
    if (!evidence) return verdict;
    auto report = attest::decodeNestedReport(evidence.value());
    if (!report) return verdict;

    attest::TenantPolicy policy;
    policy.expectedMrEnclave = inner->mrenclave();
    policy.expectedMrSigner = core::defaultAuthorKey().pub.signerMeasurement();
    if (sdk::LoadedEnclave* outer = registry_.gatewayOuter(gatewayIndex)) {
        policy.expectedOuter = outer->mrenclave();
    }
    policy.expectedChainDepth =
        config_.attestDepthOverride
            ? *config_.attestDepthOverride
            : std::uint32_t(registry_.topology() == Topology::Cvm ? 2 : 1);

    verdict = verifier_->verify(id, report.value(), policy, nonce);
    if (verdict.trusted()) sessionKeys_[id] = verdict.sessionKey;
    return verdict;
}

Bytes
TenantService::sessionKeyFor(TenantId id) const
{
    auto it = sessionKeys_.find(id);
    return it == sessionKeys_.end() ? Bytes{} : it->second;
}

Status
TenantService::removeTenant(TenantId id)
{
    if (!registry_.find(id)) return Err::NotFound;
    if (switchless_) switchless_->disarm(id);
    (void)admission_.purge(id);
    sessionKeys_.erase(id);
    return registry_.retireTenant(id);
}

Result<TenantHandle*>
TenantService::addTenant(TenantId id, Workload workload)
{
    auto tenant = registry_.ensure(id, workload);
    if (!tenant || !config_.attestOnboarding) return tenant;
    if (tenant.value()->verified) return tenant;  // pre-existing tenant

    attest::Verdict verdict =
        attestInner(tenant.value()->inner, id, tenant.value()->gatewayIndex);
    if (!verdict.trusted()) {
        // Admission on faith is exactly what the trust path forbids:
        // tear the instance straight back down.
        (void)removeTenant(id);
        return Err::AttestationFailed;
    }
    tenant.value()->verified = true;
    return tenant;
}

Status
TenantService::submit(TenantId tenant, Bytes sealed)
{
    if (!registry_.find(tenant)) return Err::NotFound;
    return admission_.submit(tenant, std::move(sealed));
}

TenantService::Placement
TenantService::placement(TenantId id)
{
    Placement p;
    if (TenantHandle* tenant = registry_.find(id)) {
        p.epoch = tenant->epoch.load(std::memory_order_relaxed);
        p.incarnation = tenant->incarnation.load(std::memory_order_relaxed);
    }
    return p;
}

Status
TenantService::submitStamped(TenantId tenant, Bytes stamped)
{
    TenantHandle* handle = registry_.find(tenant);
    if (!handle) return Err::NotFound;
    std::uint64_t epoch = 0;
    Bytes sealed;
    if (!splitEpoch(stamped, &epoch, &sealed)) return Err::BadCallBuffer;
#ifndef NESGX_BUG_EPOCH_STALE
    // The fence: a stamp resolved before the tenant's last rebuild or
    // relocation is refused typed, never served — stale clients would
    // otherwise burn sequence numbers against a placement they cannot
    // verify responses from.
    if (epoch != handle->epoch.load(std::memory_order_relaxed)) {
        ++handle->wrongEpochs;
        registry_.urts().machine().trace().publishLight(
            trace::EventKind::ServeWrongEpoch, trace::kNoCore, 0, tenant,
            epoch);
        return Err::WrongEpoch;
    }
#endif
    return admission_.submit(tenant, std::move(sealed));
}

std::size_t
TenantService::pump(std::size_t maxBatches)
{
    std::size_t steps = 0;
    while (steps < maxBatches && pool_.step()) ++steps;
    return steps;
}

}  // namespace nesgx::serve
