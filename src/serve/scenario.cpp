#include "serve/scenario.h"

#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "serve/client.h"
#include "serve/service.h"
#include "trace/chrome_sink.h"

namespace nesgx::serve {

namespace {

/** The chaos plan: storage corruption (forces PagingIntegrity
 *  recoveries), periodic leaf and allocator refusals, and an interrupt
 *  storm — seven sites so the ">= 5 distinct kinds" gate has slack. */
const char* kChaosPlan =
    "ewb-corrupt@n=3; ewb-drop-slot@n=9; eldu-fail@n=15;"
    "eenter-fail@every=40; neenter-fail@every=45;"
    "epc-alloc-fail@every=150; aex-storm@every=100;"
    // The ring-stall site only has occurrences on the switchless path:
    // a classic chaos run records zero and the distinct-site gate still
    // has seven live sites of slack.
    " ring-stall@every=30";

/** PRM pages beyond the EPC proper (VA-tracking slack) when --epc-pages
 *  shrinks the PRM. */
constexpr std::uint64_t kPrmSlackPages = 64;

std::uint64_t
gatewayEstimate(const Scenario& s)
{
    const std::uint64_t perOuter = TenantRegistry::Config{}.tenantsPerOuter;
    return (s.tenants + perOuter - 1) / perOuter;
}

sgx::Machine::Config
machineConfig(const Scenario& s)
{
    sgx::Machine::Config mc;
    if (s.switchless) {
        // One parked poller core per tenant, one per gateway, plus the
        // host workers: polling trades cores for transitions, so the
        // simulated socket grows with the fleet. The cvm tree parks one
        // more poller inside the shared root.
        mc.coreCount =
            std::uint32_t(s.tenants + gatewayEstimate(s) + (s.cvm ? 3 : 2));
    }
    if (s.epcPages > 0) {
        // Shrink the PRM so EPC pressure kicks in at small scale.
        mc.prmBytes = (s.epcPages + kPrmSlackPages) * hw::kPageSize;
    }
    // One simulated core per worker thread, on top of whatever the
    // switchless sizing already asked for.
    if (s.threads > 1 && mc.coreCount < s.threads) {
        mc.coreCount = std::uint32_t(s.threads);
    }
    return mc;
}

TenantService::Config
serviceConfig(const Scenario& s)
{
    TenantService::Config sc;
    sc.admission.maxQueueDepth = s.queueDepth;
    sc.admission.deadlineCycles = s.deadline;
    sc.pool.batchSize = s.batch;
    sc.pool.threads = s.threads;
    sc.switchless.enabled = s.switchless;
    sc.switchless.hostCores = 2;
    if (s.cvm) {
        sc.registry.topology = Topology::Cvm;
        // The CVM root's TCS pool carries every concurrent entry into
        // the tree: worker threads, and under switchless one parked
        // poller per tenant/gateway plus the root's own.
        sc.registry.cvmTcs =
            std::uint32_t(s.tenants + gatewayEstimate(s) + s.threads + 4);
        // Per-gateway ring pairs + staging live in the root's heap.
        sc.registry.cvmHeapPages = 64 + 8 * gatewayEstimate(s);
    }
    if (!s.faultPlan().empty()) {
        // One failed batch opens the breaker, so the open -> half-open
        // probe -> close cycle is guaranteed to run within the fault
        // window; the cooldown is roughly one batch of service time.
        sc.pool.breakerThreshold = 1;
        sc.pool.breakerCooldownCycles = 150000;
    }
    sc.attestOnboarding = s.attest;
    if (s.attestExpectDepth > 0) {
        sc.attestDepthOverride = std::uint32_t(s.attestExpectDepth);
    }
    return sc;
}

}  // namespace

std::string
Scenario::faultPlan() const
{
    if (!faults.empty() || !chaos) return faults;
    std::string plan = kChaosPlan;
    // Mid-storm migrations: some moves abort at export or import and
    // must roll back with the source still serving.
    if (migrateEvery > 0) {
        plan += "; migrate-export-fail@n=2; migrate-import-fail@n=2";
    }
    // Supervised chaos adds the failure-domain sites: a crashed gateway
    // refuses every dispatch until the supervisor's subtree rung rebuilds
    // it, and a wedged poller refuses until the kick rung disarms it
    // (poller-wedge only has occurrences on the switchless path).
    if (supervise) plan += "; gateway-crash@n=2; poller-wedge@n=2";
    return plan;
}

Status
Scenario::validate(std::string* why) const
{
    auto refuse = [why](const std::string& reason) -> Status {
        if (why != nullptr) *why = reason;
        return Err::InvalidConfig;
    };
    const sgx::Machine::Config defaults;
    struct Bound {
        const char* flag;
        std::uint64_t value, lo, hi;
    };
    // batch is bounded like requests so one round of batches (batch x
    // tenants) cannot overflow; the PRM must fit between prmBase and the
    // end of DRAM.
    const Bound bounds[] = {
        {"--tenants", tenants, 1, kMaxScenarioTenants},
        {"--threads", threads, 1, kMaxScenarioThreads},
        {"--requests", requests, 0, kMaxScenarioRequests},
        {"--batch", batch, 1, kMaxScenarioRequests},
        {"--epc-pages", epcPages, 0,
         (defaults.dramBytes - defaults.prmBase) / hw::kPageSize -
             kPrmSlackPages},
        {"--attest-expect-depth", attestExpectDepth, 0,
         std::numeric_limits<std::uint32_t>::max()},
    };
    for (const Bound& b : bounds) {
        if (b.value < b.lo || b.value > b.hi) {
            return refuse(std::string(b.flag) + " must be in " +
                          std::to_string(b.lo) + ".." + std::to_string(b.hi) +
                          ", got " + std::to_string(b.value));
        }
    }
    if (migrateEvery > requests) {
        return refuse("--migrate " + std::to_string(migrateEvery) +
                      " exceeds --requests " + std::to_string(requests) +
                      ": no migration would ever fire");
    }
    std::string parseError;
    const std::string plan = faultPlan();
    if (!plan.empty() && !fault::FaultPlan::parse(plan, &parseError)) {
        return refuse("--faults: " + parseError);
    }
    if (!serviceConfig(*this).validate()) {
        return refuse("--queue-depth must be at least 1");
    }
    return Status::ok();
}

ScenarioResult
Scenario::run() const
{
    ScenarioResult result;
    if (Status st = validate(&result.error); !st) {
        result.status = st;
        return result;
    }

    // Declared before the machine so it outlives every publisher, even
    // on an early return while still subscribed.
    std::unique_ptr<trace::ChromeTraceSink> sink;
    sgx::Machine machine(machineConfig(*this));
    os::Kernel kernel(machine);
    os::Pid pid = kernel.createProcess();
    sdk::Urts urts(kernel, pid);
    for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
        kernel.schedule(c, pid);
    }

    if (!chromeTrace.empty()) {
        sink = std::make_unique<trace::ChromeTraceSink>(
            machine.clock().frequencyHz() / 1e6, false);
        machine.trace().subscribe(sink.get());
        // Real worker threads publish concurrently: buffer per-shard and
        // merge by global sequence. Serial runs never enter this mode,
        // keeping --threads 1 trace output byte-identical.
        if (threads > 1) machine.trace().enableParallel(threads);
    }

    // Declared before the service: teardown may still pass fault hooks.
    std::unique_ptr<fault::FaultInjector> injector;
    const std::string plan = faultPlan();
    const TenantService::Config sc = serviceConfig(*this);
    TenantService service(urts, sc);

    // sql only when delivery is lossless (shadow-db expectations replay
    // every statement); deadline shedding and fault injection both drop
    // requests, so those runs stick to the per-request workloads.
    const std::vector<Workload> mix =
        (deadline == 0 && plan.empty())
            ? std::vector<Workload>{Workload::Echo, Workload::Sql,
                                    Workload::Svm}
            : std::vector<Workload>{Workload::Echo, Workload::Svm};

    std::vector<std::unique_ptr<TenantClient>> clients;
    for (std::uint64_t t = 0; t < tenants; ++t) {
        const Workload workload = mix[t % mix.size()];
        auto handle = service.addTenant(TenantId(t), workload);
        if (!handle) {
            result.status = handle.status();
            result.error = "tenant " + std::to_string(t) +
                           " refused at onboarding: " +
                           handle.status().name();
            return result;
        }
        // Attested onboarding hands the client the EGETKEY-rooted
        // session key; an empty key falls back to the legacy
        // out-of-band secret.
        clients.push_back(std::make_unique<TenantClient>(
            TenantId(t), workload, service.sessionKeyFor(TenantId(t))));
    }

    // Park the switchless pollers while the world is still fault-free,
    // then snapshot the transition counters: everything after this point
    // is the request path the transitions-per-request figure describes
    // (classic runs snapshot here too, so the modes compare like for
    // like).
    result.switchlessChannels = service.armSwitchless();
    const std::uint64_t transitionsBase =
        machine.trace().counters().eenterCount +
        machine.trace().counters().neenterCount;

    // Armed only now: tenant setup must succeed unconditionally, and
    // trigger occurrence counts stay independent of the setup's leaf
    // traffic.
    if (!plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(
            fault::FaultPlan::parse(plan).value(), faultSeed);
        machine.setFaultInjector(injector.get());
    }

    // The failure-domain watchdog ticks after every pump, so wedges are
    // detected at batch granularity and the ladder's actions
    // (kick/rebuild/evacuate-to-another-gateway) run between pumps.
    migrate::MigrationEngine migrator;
    std::unique_ptr<supervise::Supervisor> supervisor;
    if (supervise) {
        supervisor = std::make_unique<supervise::Supervisor>(
            service, supervise::Config{});
        supervisor->attachEngine(migrator);
    }

    // The parallel pool drains its owned queues completely per call, so
    // maxBatches only applies to the serial path.
    auto pumpAll = [&](std::size_t maxBatches) {
        if (threads > 1) {
            service.pumpParallel(threads);
        } else {
            service.pump(maxBatches);
        }
        if (supervisor) supervisor->tick();
    };

    auto drainInto = [&]() {
        // A tenant is rebuilt at most once per pump, so one reset per
        // (tenant, drain) keeps the client mirror exact.
        std::set<TenantId> rebuiltSeen;
        for (Completion& done : service.drain()) {
            result.latency.add(done.latencyCycles);
            if (done.tenantRebuilt &&
                rebuiltSeen.insert(done.tenant).second) {
                clients[done.tenant]->onTenantRebuilt();
            }
            if (done.ok) {
                if (clients[done.tenant]->onResponse(done.sealedResponse)) {
                    ++result.verified;
                }
            } else if (done.status.isOk()) {
                // ok == false must always carry a typed reason.
                ++result.silentEmpties;
            } else {
                ++result.typedErrors;
                ++result.typedByErr[std::size_t(done.error())];
                // Rebuild-marked errors already reset the whole client;
                // for the rest, retire the oldest pending expectation
                // (requests complete in sequence order per tenant).
                if (!done.tenantRebuilt) clients[done.tenant]->onDropped();
            }
        }
    };

    // Closed loop pumps once per full round of batches; open loop keeps
    // bursting until backpressure does the pacing.
    const std::uint64_t window = openLoop ? requests : batch * tenants;
    std::uint64_t cursor = 0;
    std::uint64_t migrateCursor = 0;
    while (result.submitted < requests) {
        const TenantId t = TenantId(cursor % tenants);
        ++cursor;
        Status st = service.submit(t, clients[t]->nextRequest());
        if (st.code() == Err::Backpressure) {
            ++result.backpressured;
            clients[t]->onDropped();
            pumpAll(4);  // let the pool catch up, then move on
            drainInto();
            continue;
        }
        if (!st) {
            result.status = st;
            result.error = std::string("submit: ") + st.name();
            return result;
        }
        ++result.submitted;
        // Live migration mid-stream: the moved tenant's queued and
        // future requests must keep verifying with no reseal — failed
        // moves (faults can hit the migrate sites) roll back to the
        // intact source and are just counted.
        if (migrateEvery > 0 && result.submitted % migrateEvery == 0) {
            (void)migrator.migrateToGateway(
                service, TenantId(migrateCursor++ % tenants));
        }
        if (result.submitted % window == 0) {
            pumpAll(std::size_t(-1));
            drainInto();
        }
    }
    pumpAll(std::size_t(-1));
    drainInto();

    // Recovery phase: stop injecting and require every tenant to serve
    // a verified response again — open breakers must probe shut and
    // inner-less tenants must finish rebuilding. The clock charge lets
    // half-open probe deadlines pass between rounds.
    if (injector) {
        injector->disarm();
        std::vector<bool> healed(tenants, false);
        for (int round = 0; round < 64 && result.recovered < tenants;
             ++round) {
            for (std::uint64_t t = 0; t < tenants; ++t) {
                if (healed[t]) continue;
                const std::uint64_t wasVerified = clients[t]->verified();
                Status st =
                    service.submit(TenantId(t), clients[t]->nextRequest());
                if (!st) clients[t]->onDropped();
                pumpAll(std::size_t(-1));
                drainInto();
                if (clients[t]->verified() > wasVerified) {
                    healed[t] = true;
                    ++result.recovered;
                }
            }
            machine.charge(sc.pool.breakerCooldownCycles + 1);
        }
        // A tenant that never healed is a bug somewhere in the recovery
        // machinery; dump its failure-domain state for the caller's FAIL.
        if (result.recovered < tenants) {
            std::size_t resident = 0;
            for (const auto& [secs, rec] : kernel.enclaveTable()) {
                resident += 1 + rec.pages.size();
            }
            std::fprintf(stderr,
                         "epc: %zu free, %zu enclaves (%zu resident "
                         "pages), %zu gateways\n",
                         kernel.freeEpcPages(), kernel.enclaveTable().size(),
                         resident, service.registry().gatewayCount());
        }
        for (std::uint64_t t = 0; t < tenants; ++t) {
            if (healed[t]) continue;
            const TenantHandle* h = service.registry().find(TenantId(t));
            std::fprintf(
                stderr,
                "unrecovered tenant %llu: queued %zu, breaker %s, gateway "
                "%s, inner %s\n",
                (unsigned long long)t, service.admission().depth(TenantId(t)),
                service.pool().breakerOpen(TenantId(t)) ? "open" : "closed",
                h && service.registry().gatewayCrashed(h->gatewayIndex)
                    ? "crashed"
                    : "up",
                h ? (h->inner ? "alive" : "missing") : "gone");
        }
        result.faultsInjected = injector->totalInjected();
        for (std::size_t s = 0; s < fault::kFaultSiteCount; ++s) {
            const auto site = fault::FaultSite(s);
            result.injectedAt[s] = injector->injected(site);
            result.occurrencesAt[s] = injector->occurrences(site);
            if (result.injectedAt[s] > 0) ++result.faultSites;
        }
    }

    for (const auto& client : clients) result.failures += client->failures();
    const WorkerPool& pool = service.pool();
    result.retries = pool.retries();
    result.rebuilds = pool.rebuilds();
    result.subtreeRebuilds = pool.subtreeRebuilds();
    result.breakerOpens = pool.breakerOpens();
    result.breakerCloses = pool.breakerCloses();
    result.rebuildLatency = pool.rebuildLatency();
    result.shed = service.admission().shed();
    result.watermarkMisses = service.pressure().watermarkMisses();
    result.gateways = service.registry().gatewayCount();
    result.migration = migrator.stats();
    if (supervisor) result.supervision = supervisor->stats();
    result.simCycles = machine.clock().cycles();
    result.counters = machine.trace().counters();
    result.transitions = result.counters.eenterCount +
                         result.counters.neenterCount - transitionsBase;
    if (const auto* engine = service.switchlessEngine()) {
        result.ringCalls = engine->engineStats().calls;
    }

    if (sink) {
        // Parallel mode buffers events per shard; drain the merged,
        // seq-ordered stream into the sink before detaching it.
        if (machine.trace().parallelEnabled()) {
            machine.trace().disableParallel();
        }
        machine.trace().unsubscribe(sink.get());
        if (!sink->writeFile(chromeTrace)) {
            result.status = Err::OsError;
            result.error = "cannot write " + chromeTrace;
        }
    }
    return result;
}

}  // namespace nesgx::serve
