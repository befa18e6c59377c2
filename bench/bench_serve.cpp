/**
 * Serving-layer benchmark: the two headline properties of src/serve.
 *
 *  1. Batching amortizes enclave transitions. A closed-loop sweep over
 *     worker batch sizes measures NEENTER per request: batch-1 pays one
 *     EENTER + one NEENTER per request; batch-8 pays the same pair per
 *     *batch*, so the per-request transition cost drops with occupancy.
 *
 *  2. The service stays correct under EPC pressure. A run with many
 *     more tenants than the (shrunken) EPC can hold forces the pressure
 *     manager through dozens of EBLOCK/ETRACK/EWB tenant evictions and
 *     transparent ELDU reloads — and every sealed response must still
 *     verify byte-for-byte client-side (sql responses against a shadow
 *     database replay).
 *
 * An open-loop section in between drives bursty arrivals against a
 * request deadline, exercising admission backpressure and shedding. A
 * final chaos section arms the deterministic fault injector (src/fault)
 * against the pressure scenario and measures the self-healing machinery:
 * retries, tenant rebuilds, breaker cycles, and rebuild latency.
 *
 * The closing ablation re-runs the oversubscribed pressure scenario
 * through the exit-less switchless layer (src/switchless): after the
 * pollers park (one classic EENTER/NEENTER each, before the metric
 * snapshot), every request flows host -> outer -> inner over shared
 * rings, so transitions per request must collapse to ~0 while every
 * sealed response still verifies.
 *
 * The thread-scaling section measures the whole request volume for a
 * 24-tenant fleet queued up front, then the parallel worker pool
 * (WorkerPool::runParallel, one OS thread per simulated core) drains it
 * while a wall-clock timer runs — requests/sec at 1, 2 and 4 threads,
 * every response still verified.
 *
 * The CVM section nests the whole fleet one level deeper (Topology
 * ::Cvm): a depth-1 CVM root hosts every gateway as a depth-2 inner and
 * tenants serve at depth 3, over per-hop switchless rings under EPC
 * oversubscription — transitions per request must still collapse to ~0.
 *
 * Every run onboards through the attested trust path: tenants are
 * admitted only after NEREPORT chain verification, and clients seal
 * with the EGETKEY-rooted session key the verifier derived rather than
 * an out-of-band secret.
 *
 * The migration section splits the 24-tenant 4x-oversubscribed fleet
 * across two simulated host Machines behind a Fleet router and
 * live-migrates every tenant mid-run — gateway moves on the same host
 * plus cross-host moves that re-wrap the sealed snapshot between root
 * of trust domains — while 480/480 sealed responses must still verify
 * with sequence continuity. The closing chaos sweep re-runs the depth-3
 * CVM tree with the fault injector armed (including migrate-stage
 * faults) and migrations firing mid-storm.
 *
 * JSON keys asserted by CI: neenter_per_req_batch1 > neenter_per_req_batch8,
 * pressure_evictions >= 10, pressure_integrity_failures == 0,
 * chaos_faults_injected > 0, chaos_rebuilds >= 1, chaos_silent_empties == 0,
 * transitions_per_request_switchless <= 0.01 <
 * transitions_per_request_batched < transitions_per_request_classic,
 * requests_per_sec_t1 <= requests_per_sec_t2 <= requests_per_sec_t4,
 * cvm_verified == cvm_submitted with cvm_transitions_per_request
 * <= 0.01 under cvm_evictions >= 10, migrate_verified ==
 * migrate_submitted with migrate_gateway_moves >= tenants and
 * migrate_host_moves >= 1 at migrate_aborted == 0,
 * cvm_chaos_silent_empties == 0 with cvm_chaos_migrations >= 1, and
 * (supervision section) evac_verified == evac_target at
 * evac_silent_empties == 0 with supervise_wedges >= 1,
 * evac_evacuations >= 1 and evac_redirects >= 1.
 *
 * The closing supervision section re-runs the two-host fleet with a
 * per-host health Supervisor (src/supervise) watching heartbeats:
 * mid-run the injector crashes a gateway on host A (subtree rebuild)
 * and then degrades the whole host (epoch-fenced mass evacuation to
 * host B) — detection latency, evacuation p50/p95 and time to full
 * recovery are reported, and every response must still verify.
 */
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "bench_util.h"
#include "fault/injector.h"
#include "migrate/engine.h"
#include "serve/client.h"
#include "serve/scenario.h"
#include "serve/service.h"
#include "supervise/supervisor.h"

namespace nesgx::bench {
namespace {

/** Sections 3-5, 7 and 9: 4x the tenants and twice the requests of
 *  sections 1-2, on an EPC far smaller than the fleet's working set. */
serve::Scenario
oversubscribed(std::uint64_t tenants, std::uint64_t requests,
               std::uint64_t epcPages)
{
    serve::Scenario scenario;
    scenario.tenants = tenants * 4;
    scenario.requests = requests * 2;
    scenario.epcPages = epcPages;
    return scenario;
}

/** Runs one serving scenario, exiting like nesgx_serve on a refused
 *  scenario (2) or a run that could not finish (1). */
serve::ScenarioResult
runScenario(const serve::Scenario& scenario)
{
    std::string why;
    if (!scenario.validate(&why)) {
        std::fprintf(stderr, "error: %s\n", why.c_str());
        std::exit(2);
    }
    serve::ScenarioResult r = scenario.run();
    if (!r.status) {
        std::fprintf(stderr, "error: %s\n", r.error.c_str());
        std::exit(1);
    }
    if (!scenario.chromeTrace.empty()) {
        std::printf("  [chrome trace written to %s]\n",
                    scenario.chromeTrace.c_str());
    }
    return r;
}

void
printLatency(const Histogram& latency)
{
    std::printf("  latency cycles: p50 %llu  p95 %llu  p99 %llu\n",
                (unsigned long long)latency.p50(),
                (unsigned long long)latency.p95(),
                (unsigned long long)latency.p99());
}

/** Sections 3 and 7: prints the oversubscribed fleet's integrity and
 *  paging, and requires that the pressure manager really paged. */
bool
paged(const serve::ScenarioResult& r, std::uint64_t tenants)
{
    const std::uint64_t evictions = r.counters.serveTenantEvictions;
    std::printf("\n  tenants %llu, verified %llu/%llu, failures %llu\n",
                (unsigned long long)tenants, (unsigned long long)r.verified,
                (unsigned long long)r.submitted,
                (unsigned long long)r.failures);
    std::printf("  tenant evictions %llu, reloads %llu\n",
                (unsigned long long)evictions,
                (unsigned long long)r.counters.serveTenantReloads);
    if (evictions >= 10) return true;
    std::fprintf(stderr, "FAIL: expected >= 10 evictions, got %llu\n",
                 (unsigned long long)evictions);
    return false;
}

void
printFaults(const serve::ScenarioResult& r)
{
    std::printf("\n  faults injected %llu at %llu sites; verified %llu, "
                "typed errors %llu, silent empties %llu\n",
                (unsigned long long)r.faultsInjected,
                (unsigned long long)r.faultSites,
                (unsigned long long)r.verified,
                (unsigned long long)r.typedErrors,
                (unsigned long long)r.silentEmpties);
}

/** Sections 4 and 9: faults fired, nothing failed verification or came
 *  back empty without a typed error, and every tenant served verified
 *  responses again once the faults stopped. */
bool
selfHealed(const serve::ScenarioResult& r, const serve::Scenario& scenario,
           const char* run)
{
    if (r.failures > 0 || r.silentEmpties > 0) {
        std::fprintf(stderr,
                     "FAIL: %s run: %llu integrity failures, %llu silent "
                     "empties\n",
                     run, (unsigned long long)r.failures,
                     (unsigned long long)r.silentEmpties);
        return false;
    }
    if (r.faultsInjected == 0 || r.recovered < scenario.tenants) {
        std::fprintf(stderr,
                     "FAIL: %s run must inject (got %llu) and recover every "
                     "tenant (got %llu/%llu)\n",
                     run, (unsigned long long)r.faultsInjected,
                     (unsigned long long)r.recovered,
                     (unsigned long long)scenario.tenants);
        return false;
    }
    return true;
}

/** Sections 5 and 7: every request verified, and the ring path kept the
 *  steady state (near) transition-free. */
bool
exitless(const serve::ScenarioResult& r, const char* run)
{
    if (r.failures > 0 || r.verified != r.submitted) {
        std::fprintf(stderr,
                     "FAIL: %s run must verify every request (%llu/%llu, "
                     "%llu failures)\n",
                     run, (unsigned long long)r.verified,
                     (unsigned long long)r.submitted,
                     (unsigned long long)r.failures);
        return false;
    }
    const double perReq = double(r.transitions) / double(r.submitted);
    if (perReq > 0.01) {
        std::fprintf(stderr,
                     "FAIL: %s transitions/request %.4f exceeds 0.01 — the "
                     "exit-less path is leaking transitions\n",
                     run, perReq);
        return false;
    }
    return true;
}

/**
 * Sections 8 and 10: two simulated hosts (distinct sealing-key roots,
 * 1024-page EPCs) behind a Fleet router, tenants onboarded attested on
 * host A.
 */
struct TwoHostFleet {
    static sgx::Machine::Config hostConfig(std::uint64_t seed)
    {
        auto config = defaultConfig();
        config.rngSeed = seed;  // distinct sealing-key root per host
        config.prmBytes = (1024 + 64) * hw::kPageSize;
        return config;
    }

    static serve::TenantService::Config attested()
    {
        serve::TenantService::Config sc;
        sc.attestOnboarding = true;
        return sc;
    }

    BenchWorld hostA{hostConfig(42)};
    BenchWorld hostB{hostConfig(99)};
    serve::TenantService serviceA{*hostA.urts, attested()};
    serve::TenantService serviceB{*hostB.urts, attested()};
    migrate::Fleet fleet;
    migrate::MigrationEngine engine;
    std::vector<std::unique_ptr<serve::TenantClient>> clients;

    TwoHostFleet()
    {
        fleet.addHost(serviceA);
        fleet.addHost(serviceB);
    }

    /** Onboards tenants 0..n-1 (echo/sql/svm round robin) on host A,
     *  each with a client sealing under its attested session key. */
    void onboard(std::uint64_t n)
    {
        const serve::Workload mix[] = {serve::Workload::Echo,
                                       serve::Workload::Sql,
                                       serve::Workload::Svm};
        for (std::uint64_t t = 0; t < n; ++t) {
            const serve::TenantId id = serve::TenantId(t);
            const serve::Workload workload = mix[t % 3];
            fleet.addTenant(id, workload, 0).orThrow("tenant");
            clients.push_back(std::make_unique<serve::TenantClient>(
                id, workload, fleet.hostOf(id)->sessionKeyFor(id)));
        }
    }
};

struct ScalingResult {
    std::uint64_t submitted = 0;
    std::uint64_t verified = 0;
    std::uint64_t failures = 0;
    std::uint64_t batches = 0;
    double seconds = 0.0;
};

/**
 * Thread-scaling section: queues the whole request volume for the fleet
 * up front, then wall-clock-times the parallel drain alone. Ample EPC
 * and no switchless, so the measurement isolates the worker pool's
 * real-thread scaling rather than paging or ring behaviour.
 */
ScalingResult
runThreadScaling(std::size_t threads, std::uint64_t tenants,
                 std::uint64_t perTenant)
{
    auto config = defaultConfig();
    if (config.coreCount < threads) {
        config.coreCount = std::uint32_t(threads);
    }
    BenchWorld world(config);

    serve::TenantService::Config sc;
    sc.pool.batchSize = 8;
    sc.pool.threads = threads;
    // The whole volume sits queued before the pool runs.
    sc.admission.maxQueueDepth = perTenant;
    // 24 tenants / 3 per outer = 8 gateways: divisible by every swept
    // thread count, so the gateway-partitioned workers stay balanced.
    sc.registry.tenantsPerOuter = 3;
    sc.attestOnboarding = true;
    serve::TenantService service(*world.urts, sc);

    const std::vector<serve::Workload> mix = {serve::Workload::Echo,
                                              serve::Workload::Sql,
                                              serve::Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (std::uint64_t t = 0; t < tenants; ++t) {
        auto workload = mix[t % mix.size()];
        service.addTenant(serve::TenantId(t), workload).orThrow("tenant");
        const Bytes key = service.sessionKeyFor(serve::TenantId(t));
        clients.push_back(std::make_unique<serve::TenantClient>(
            serve::TenantId(t), workload, key));
    }

    ScalingResult result;
    for (std::uint64_t i = 0; i < perTenant; ++i) {
        for (std::uint64_t t = 0; t < tenants; ++t) {
            service.submit(serve::TenantId(t), clients[t]->nextRequest())
                .orThrow("submit");
            ++result.submitted;
        }
    }

    const auto start = std::chrono::steady_clock::now();
    service.pumpParallel(threads);
    const auto stop = std::chrono::steady_clock::now();
    result.seconds =
        std::chrono::duration<double>(stop - start).count();

    for (serve::Completion& done : service.drain()) {
        if (done.ok && clients[done.tenant]->onResponse(done.sealedResponse)) {
            ++result.verified;
        }
    }
    for (const auto& client : clients) {
        result.failures += client->failures();
    }
    result.batches = world.machine.trace().counters().serveBatches;
    return result;
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx;
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    const std::uint64_t tenants = flags.u64("tenants", 6);
    const std::uint64_t requests = flags.u64("requests", 240);
    const std::string chromeTrace = flags.str("chrome-trace", "");
    const std::uint64_t faultSeed = flags.u64("fault-seed", 7);
    const std::uint64_t scalingPerTenant =
        flags.u64("scaling-per-tenant", 20);
    JsonReport json(flags);
    flags.finish();

    header("Serve bench 1/10: NEENTER per request vs worker batch size");
    note("closed loop, ample EPC; one EENTER+NEENTER per dispatched batch,");
    note("so transitions per request fall as batch occupancy rises");
    std::printf("\n  %6s %10s %12s %12s %14s %10s %10s\n", "batch", "verified",
                "NEENTER", "neenter/req", "req/batch", "p50 cyc", "p99 cyc");
    for (std::size_t batch : {std::size_t(1), std::size_t(2), std::size_t(4),
                              std::size_t(8)}) {
        serve::Scenario scenario;
        scenario.tenants = tenants;
        scenario.requests = requests;
        scenario.batch = batch;
        const serve::ScenarioResult r = runScenario(scenario);
        if (r.failures > 0) {
            std::fprintf(stderr, "FAIL: %llu integrity failures at batch %zu\n",
                         (unsigned long long)r.failures, batch);
            return 1;
        }
        const trace::StatsCounters& c = r.counters;
        double perReq = double(c.neenterCount) / double(r.submitted);
        std::printf("  %6zu %10llu %12llu %12.3f %14.2f %10llu %10llu\n",
                    batch, (unsigned long long)r.verified,
                    (unsigned long long)c.neenterCount, perReq,
                    c.serveBatches ? double(c.serveBatchedRequests) /
                                         double(c.serveBatches)
                                   : 0.0,
                    (unsigned long long)r.latency.p50(),
                    (unsigned long long)r.latency.p99());
        json.set("neenter_per_req_batch" + std::to_string(batch), perReq);
        // Per-mode EENTER+NEENTER per request (post-arming snapshot),
        // the axis the switchless ablation in section 5/10 completes:
        // batch-1 is the classic one-transition-pair-per-request mode,
        // batch-8 the amortized mode.
        if (batch == 1) {
            json.set("transitions_per_request_classic",
                     double(r.transitions) / double(r.submitted));
        }
        if (batch == 8) {
            json.set("transitions_per_request_batched",
                     double(r.transitions) / double(r.submitted));
            json.set("batch8_p50_cycles", double(r.latency.p50()));
            json.set("batch8_p95_cycles", double(r.latency.p95()));
            json.set("batch8_p99_cycles", double(r.latency.p99()));
        }
    }

    header("Serve bench 2/10: open-loop burst arrivals with deadlines");
    note("the whole request volume arrives before the pool runs; bounded");
    note("queues push back (Err::Backpressure) and queued requests that");
    note("outlive their deadline are shed at dequeue, never dispatched");
    {
        serve::Scenario scenario;
        scenario.tenants = tenants;
        scenario.requests = requests;
        scenario.deadline = 150000;
        scenario.openLoop = true;
        const serve::ScenarioResult r = runScenario(scenario);
        if (r.failures > 0) {
            std::fprintf(stderr, "FAIL: %llu integrity failures open-loop\n",
                         (unsigned long long)r.failures);
            return 1;
        }
        std::printf("\n  submitted %llu, verified %llu, shed %llu, "
                    "backpressured %llu\n",
                    (unsigned long long)r.submitted,
                    (unsigned long long)r.verified,
                    (unsigned long long)r.shed,
                    (unsigned long long)r.backpressured);
        printLatency(r.latency);
        json.set("open_loop_verified", double(r.verified));
        json.set("open_loop_shed", double(r.shed));
        json.set("open_loop_backpressured", double(r.backpressured));
        json.set("open_loop_p99_cycles", double(r.latency.p99()));
    }

    header("Serve bench 3/10: correctness under EPC pressure");
    note("4x the tenants on a small EPC: the pressure manager pages cold");
    note("idle tenants out (EBLOCK/ETRACK/EWB) and the registry reloads");
    note("them transparently (ELDU); every sealed response must still");
    note("verify against the client's shadow expectations");
    {
        serve::Scenario scenario = oversubscribed(tenants, requests, 1024);
        scenario.chromeTrace = chromeTrace;
        const serve::ScenarioResult r = runScenario(scenario);
        if (!paged(r, scenario.tenants)) return 1;
        printLatency(r.latency);
        json.set("pressure_evictions",
                 double(r.counters.serveTenantEvictions));
        json.set("pressure_reloads", double(r.counters.serveTenantReloads));
        json.set("pressure_watermark_misses", double(r.watermarkMisses));
        json.set("pressure_integrity_failures", double(r.failures));
        json.set("pressure_verified", double(r.verified));
        json.set("pressure_p50_cycles", double(r.latency.p50()));
        json.set("pressure_p95_cycles", double(r.latency.p95()));
        json.set("pressure_p99_cycles", double(r.latency.p99()));
        if (r.failures > 0) {
            std::fprintf(stderr, "FAIL: integrity failures under pressure\n");
            return 1;
        }
    }

    header("Serve bench 4/10: chaos — fault injection and self-healing");
    note("the EPC-pressure scenario with the deterministic fault injector");
    note("armed: storage corruption, refused leaves, allocator failures and");
    note("interrupt storms; the pool retries transients, rebuilds poisoned");
    note("tenants behind per-tenant circuit breakers, and every request must");
    note("end verified or with a typed error — never a silent empty");
    {
        serve::Scenario scenario = oversubscribed(tenants, requests, 1024);
        scenario.chaos = true;
        scenario.faultSeed = faultSeed;
        const serve::ScenarioResult r = runScenario(scenario);
        printFaults(r);
        std::printf("  retries %llu, rebuilds %llu, breaker open/close "
                    "%llu/%llu, recovered %llu/%llu\n",
                    (unsigned long long)r.retries,
                    (unsigned long long)r.rebuilds,
                    (unsigned long long)r.breakerOpens,
                    (unsigned long long)r.breakerCloses,
                    (unsigned long long)r.recovered,
                    (unsigned long long)scenario.tenants);
        if (!r.rebuildLatency.empty()) {
            std::printf("  rebuild cycles: p50 %llu  p95 %llu\n",
                        (unsigned long long)r.rebuildLatency.p50(),
                        (unsigned long long)r.rebuildLatency.p95());
        }
        json.set("chaos_faults_injected", double(r.faultsInjected));
        json.set("chaos_fault_sites", double(r.faultSites));
        json.set("chaos_verified", double(r.verified));
        json.set("chaos_typed_errors", double(r.typedErrors));
        json.set("chaos_silent_empties", double(r.silentEmpties));
        json.set("chaos_retries", double(r.retries));
        json.set("chaos_rebuilds", double(r.rebuilds));
        json.set("chaos_breaker_opens", double(r.breakerOpens));
        json.set("chaos_breaker_closes", double(r.breakerCloses));
        json.set("chaos_watermark_misses", double(r.watermarkMisses));
        json.set("chaos_rebuild_p50_cycles", double(r.rebuildLatency.p50()));
        json.set("chaos_rebuild_p95_cycles", double(r.rebuildLatency.p95()));
        if (!selfHealed(r, scenario, "chaos")) return 1;
        if (r.rebuilds == 0) {
            std::fprintf(stderr, "FAIL: chaos run rebuilt no tenant\n");
            return 1;
        }
    }

    header("Serve bench 5/10: switchless ablation — killing the transition tax");
    note("the 4x-oversubscribed tenant fleet again, dispatched over the");
    note("exit-less ring channels: pollers park once up front (classic");
    note("EENTER/NEENTER, before the metric snapshot), then the steady");
    note("state serves every request with ring polls instead of enclave");
    note("transitions — the per-request transition figure must collapse");
    note("to <= 0.01 while every sealed response still verifies");
    {
        serve::Scenario scenario = oversubscribed(tenants, requests, 1024);
        scenario.switchless = true;
        const serve::ScenarioResult r = runScenario(scenario);
        const double perReq = double(r.transitions) / double(r.submitted);
        std::printf("\n  tenants %llu, verified %llu/%llu, failures %llu\n",
                    (unsigned long long)scenario.tenants,
                    (unsigned long long)r.verified,
                    (unsigned long long)r.submitted,
                    (unsigned long long)r.failures);
        std::printf("  channels %llu, ring calls %llu, ring polls %llu\n",
                    (unsigned long long)r.switchlessChannels,
                    (unsigned long long)r.ringCalls,
                    (unsigned long long)r.counters.switchlessPolls);
        std::printf("  transitions/request %.4f (post-arming; EENTER %llu + "
                    "NEENTER %llu lifetime)\n",
                    perReq, (unsigned long long)r.counters.eenterCount,
                    (unsigned long long)r.counters.neenterCount);
        printLatency(r.latency);
        json.set("transitions_per_request_switchless", perReq);
        json.set("switchless_channels", double(r.switchlessChannels));
        json.set("switchless_ring_calls", double(r.ringCalls));
        json.set("switchless_ring_polls",
                 double(r.counters.switchlessPolls));
        json.set("switchless_verified", double(r.verified));
        json.set("switchless_integrity_failures", double(r.failures));
        json.set("switchless_p50_cycles", double(r.latency.p50()));
        json.set("switchless_p99_cycles", double(r.latency.p99()));
        if (!exitless(r, "switchless")) return 1;
    }

    header("Serve bench 6/10: requests/sec vs real OS worker threads");
    note("a 24-tenant fleet with its whole request volume queued up front;");
    note("the parallel pool drains it with one OS thread per simulated core");
    note("(sharded EPCM, per-core TLBs, merged trace) and a wall-clock timer");
    note("measures the drain alone — every response still verifies");
    {
        const std::uint64_t scalingTenants = 24;
        // Wall-clock scaling is bounded by the host, not the simulation:
        // record the real core count so CI can gate the speedup keys
        // only where the hardware can express a speedup at all.
        const unsigned hostCpus = std::thread::hardware_concurrency();
        std::printf("\n  host cpus: %u%s\n", hostCpus,
                    hostCpus < 4 ? "  (speedup capped by host cores)" : "");
        json.set("host_cpus", double(hostCpus));
        std::printf("\n  %8s %10s %10s %10s %14s %9s\n", "threads", "verified",
                    "batches", "seconds", "req/sec", "speedup");
        double base = 0.0;
        for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                    std::size_t(4)}) {
            ScalingResult r =
                runThreadScaling(threads, scalingTenants, scalingPerTenant);
            if (r.failures > 0 || r.verified != r.submitted) {
                std::fprintf(stderr,
                             "FAIL: scaling run t=%zu must verify every "
                             "request (%llu/%llu, %llu failures)\n",
                             threads, (unsigned long long)r.verified,
                             (unsigned long long)r.submitted,
                             (unsigned long long)r.failures);
                return 1;
            }
            const double reqPerSec =
                r.seconds > 0.0 ? double(r.verified) / r.seconds : 0.0;
            if (threads == 1) base = reqPerSec;
            std::printf("  %8zu %10llu %10llu %10.4f %14.0f %8.2fx\n",
                        threads, (unsigned long long)r.verified,
                        (unsigned long long)r.batches, r.seconds, reqPerSec,
                        base > 0.0 ? reqPerSec / base : 0.0);
            json.set("requests_per_sec_t" + std::to_string(threads),
                     reqPerSec);
            if (threads == 4 && base > 0.0) {
                json.set("scaling_speedup_t4", reqPerSec / base);
            }
        }
    }

    header("Serve bench 7/10: depth-3 CVM tree — nesting the whole fleet");
    note("--topology cvm: one depth-1 CVM root hosts every gateway as a");
    note("depth-2 inner and tenants serve at depth 3 (paper §VIII). The");
    note("oversubscribed fleet again, dispatched over per-hop switchless");
    note("rings (host ring -> root poller -> gateway poller -> tenant");
    note("poller): a depth-3 chain must still pay zero steady-state");
    note("transitions per request while every sealed response verifies");
    {
        // Slightly above the flat pressure floor: the CVM root and the
        // per-hop poller TCS pools are unevictable, but the tenant
        // working set still far exceeds the EPC, so paging stays hot.
        serve::Scenario scenario = oversubscribed(tenants, requests, 1280);
        scenario.switchless = true;
        scenario.cvm = true;
        const serve::ScenarioResult r = runScenario(scenario);
        const double perReq = double(r.transitions) / double(r.submitted);
        if (!paged(r, scenario.tenants)) return 1;
        std::printf("  channels %llu, ring calls %llu, ring polls %llu\n",
                    (unsigned long long)r.switchlessChannels,
                    (unsigned long long)r.ringCalls,
                    (unsigned long long)r.counters.switchlessPolls);
        std::printf("  transitions/request %.4f (post-arming)\n", perReq);
        printLatency(r.latency);
        json.set("cvm_verified", double(r.verified));
        json.set("cvm_submitted", double(r.submitted));
        json.set("cvm_integrity_failures", double(r.failures));
        json.set("cvm_evictions", double(r.counters.serveTenantEvictions));
        json.set("cvm_reloads", double(r.counters.serveTenantReloads));
        json.set("cvm_channels", double(r.switchlessChannels));
        json.set("cvm_transitions_per_request", perReq);
        json.set("cvm_p50_cycles", double(r.latency.p50()));
        json.set("cvm_p99_cycles", double(r.latency.p99()));
        if (!exitless(r, "cvm")) return 1;
    }

    header("Serve bench 8/10: live migration — two hosts, one sealed session");
    note("the 24-tenant 4x-oversubscribed fleet split across two simulated");
    note("host Machines (distinct root keys) behind a Fleet router; every");
    note("tenant live-migrates to a different gateway mid-run and a rolling");
    note("subset crosses hosts — EXPORT/DRAIN/STAGE/ATTEST/IMPORT/COMMIT");
    note("with the snapshot re-wrapped between root of trust domains — and");
    note("every sealed response must still verify with sequence continuity");
    {
        const std::uint64_t migrateTenants = 24;
        const std::uint64_t perTenant = 20;
        const std::uint64_t total = migrateTenants * perTenant;  // 480

        TwoHostFleet hosts;
        hosts.onboard(migrateTenants);
        migrate::Fleet& fleet = hosts.fleet;
        migrate::MigrationEngine& engine = hosts.engine;
        const auto& clients = hosts.clients;

        serve::ScenarioResult r;  // request counters and latency only
        std::vector<std::uint64_t> moves(migrateTenants, 0);
        auto drainFleet = [&]() {
            for (serve::Completion& done : fleet.drainAll()) {
                r.latency.add(done.latencyCycles);
                if (done.ok &&
                    clients[done.tenant]->onResponse(done.sealedResponse)) {
                    ++r.verified;
                }
            }
        };

        std::uint64_t gwCursor = 0;
        for (std::uint64_t round = 0; round < perTenant; ++round) {
            for (std::uint64_t t = 0; t < migrateTenants; ++t) {
                fleet.submit(serve::TenantId(t), clients[t]->nextRequest())
                    .orThrow("submit");
                ++r.submitted;
            }
            fleet.pumpAll();
            drainFleet();
            // Two gateway moves per round (40 total: every tenant at
            // least once) plus one cross-host move per round, round
            // robin so tenants bounce between the two machines.
            for (int g = 0; g < 2; ++g) {
                const serve::TenantId id =
                    serve::TenantId(gwCursor++ % migrateTenants);
                if (engine.migrateToGateway(*fleet.hostOf(id), id)) {
                    ++moves[id];
                }
            }
            const serve::TenantId hop =
                serve::TenantId(round % migrateTenants);
            const std::size_t dst = 1 - fleet.hostIndexOf(hop);
            if (fleet.migrateAcross(engine, hop, dst)) {
                ++moves[hop];
            }
        }
        fleet.pumpAll();
        drainFleet();
        for (const auto& client : clients) {
            r.failures += client->failures();
        }
        std::uint64_t unmoved = 0;
        for (std::uint64_t m : moves) {
            if (m == 0) ++unmoved;
        }

        const auto& ms = engine.stats();
        std::printf("\n  tenants %llu across %zu hosts, verified %llu/%llu, "
                    "failures %llu\n",
                    (unsigned long long)migrateTenants, fleet.hostCount(),
                    (unsigned long long)r.verified,
                    (unsigned long long)r.submitted,
                    (unsigned long long)r.failures);
        std::printf("  migrations: %llu attempted, %llu gateway + %llu "
                    "cross-host committed, %llu aborted\n",
                    (unsigned long long)ms.attempts,
                    (unsigned long long)ms.gatewayMoves,
                    (unsigned long long)ms.hostMoves,
                    (unsigned long long)ms.aborted);
        std::printf("  pages drained %llu, requests requeued %llu, tenants "
                    "never moved %llu\n",
                    (unsigned long long)ms.pagesDrained,
                    (unsigned long long)ms.requeued,
                    (unsigned long long)unmoved);
        std::printf("  migration cycles: p50 %llu  p95 %llu\n",
                    (unsigned long long)ms.latency.p50(),
                    (unsigned long long)ms.latency.p95());
        std::printf("  request cycles:   p50 %llu  p95 %llu  p99 %llu\n",
                    (unsigned long long)r.latency.p50(),
                    (unsigned long long)r.latency.p95(),
                    (unsigned long long)r.latency.p99());
        json.set("migrate_submitted", double(r.submitted));
        json.set("migrate_verified", double(r.verified));
        json.set("migrate_integrity_failures", double(r.failures));
        json.set("migrate_attempts", double(ms.attempts));
        json.set("migrate_gateway_moves", double(ms.gatewayMoves));
        json.set("migrate_host_moves", double(ms.hostMoves));
        json.set("migrate_aborted", double(ms.aborted));
        json.set("migrate_pages_drained", double(ms.pagesDrained));
        json.set("migrate_p50_cycles", double(ms.latency.p50()));
        json.set("migrate_p95_cycles", double(ms.latency.p95()));
        if (r.failures > 0 || r.verified != total || r.submitted != total) {
            std::fprintf(stderr,
                         "FAIL: migration run must verify every request "
                         "(%llu/%llu, %llu failures)\n",
                         (unsigned long long)r.verified,
                         (unsigned long long)total,
                         (unsigned long long)r.failures);
            return 1;
        }
        if (ms.gatewayMoves < migrateTenants || ms.hostMoves < 1 ||
            ms.aborted > 0 || unmoved > 0) {
            std::fprintf(stderr,
                         "FAIL: migration run must move every tenant (gw "
                         "%llu, host %llu, aborted %llu, unmoved %llu)\n",
                         (unsigned long long)ms.gatewayMoves,
                         (unsigned long long)ms.hostMoves,
                         (unsigned long long)ms.aborted,
                         (unsigned long long)unmoved);
            return 1;
        }
    }

    header("Serve bench 9/10: chaos x topology — CVM tree under fault storm");
    note("the depth-3 CVM fleet with the fault injector armed (paging");
    note("corruption, refused leaves, allocator failures, interrupt storms");
    note("AND migrate-stage faults) while live migrations fire mid-storm:");
    note("aborted moves must roll back to an intact source, committed moves");
    note("must carry the sealed session, and every request must end");
    note("verified or with a typed error — never a silent empty");
    {
        serve::Scenario scenario = oversubscribed(tenants, requests, 1280);
        scenario.cvm = true;
        scenario.chaos = true;  // the chaos plan gains the migrate sites
        scenario.faultSeed = faultSeed;
        scenario.migrateEvery = 20;
        const serve::ScenarioResult r = runScenario(scenario);
        printFaults(r);
        std::printf("  migrations committed %llu, aborted %llu; rebuilds "
                    "%llu, recovered %llu/%llu\n",
                    (unsigned long long)r.migration.gatewayMoves,
                    (unsigned long long)r.migration.aborted,
                    (unsigned long long)r.rebuilds,
                    (unsigned long long)r.recovered,
                    (unsigned long long)scenario.tenants);
        json.set("cvm_chaos_submitted", double(r.submitted));
        json.set("cvm_chaos_verified", double(r.verified));
        json.set("cvm_chaos_faults_injected", double(r.faultsInjected));
        json.set("cvm_chaos_fault_sites", double(r.faultSites));
        json.set("cvm_chaos_rebuilds", double(r.rebuilds));
        json.set("cvm_chaos_recovered", double(r.recovered));
        json.set("cvm_chaos_typed_errors", double(r.typedErrors));
        json.set("cvm_chaos_silent_empties", double(r.silentEmpties));
        json.set("cvm_chaos_migrations",
                 double(r.migration.gatewayMoves));
        json.set("cvm_chaos_migrate_aborted",
                 double(r.migration.aborted));
        if (!selfHealed(r, scenario, "cvm chaos")) return 1;
        if (r.migration.gatewayMoves == 0) {
            std::fprintf(stderr, "FAIL: cvm chaos run migrated no tenant\n");
            return 1;
        }
    }

    header("Serve bench 10/10: failure-domain supervision — evacuation "
           "under chaos");
    note("the two-host fleet again, now with a per-host supervisor watching");
    note("heartbeat counters: mid-run the injector crashes a gateway on");
    note("host A (wedge -> subtree rebuild) and later degrades the whole");
    note("host (wedge -> epoch-fenced mass evacuation to host B). Every");
    note("placement change bumps the tenant's epoch, so stale submits are");
    note("refused with a typed WrongEpoch redirect and clients re-resolve");
    note("with exponential backoff — 480/480 responses must still verify");
    {
        const std::uint64_t nTenants = 24;
        const std::uint64_t perTenant = 20;
        const std::uint64_t total = nTenants * perTenant;  // 480

        TwoHostFleet hosts;
        migrate::Fleet& fleet = hosts.fleet;
        supervise::Config supCfg;
        supCfg.wedgeTicks = 1;
        supCfg.rungPatience = 1;
        supervise::Supervisor supA(hosts.serviceA, supCfg);
        supA.attachFleet(fleet, hosts.engine, 0);
        supervise::Supervisor supB(hosts.serviceB, supCfg);
        supB.attachFleet(fleet, hosts.engine, 1);

        hosts.onboard(nTenants);
        const auto& clients = hosts.clients;
        for (std::uint64_t t = 0; t < nTenants; ++t) {
            const auto p = fleet.placement(serve::TenantId(t));
            clients[t]->onPlacement(p.epoch, p.incarnation);
        }
        std::vector<std::uint64_t> verifiedPer(nTenants, 0);
        std::vector<std::uint64_t> owed(nTenants, 0);  // failed, resubmit

        std::uint64_t submitted = 0;
        std::uint64_t verified = 0;
        std::uint64_t redirects = 0;
        std::uint64_t typedErrors = 0;
        std::uint64_t silentEmpties = 0;
        Histogram latency;

        // Fenced submit: the request carries the client's placement
        // epoch; a WrongEpoch refusal backs off (deterministic jitter,
        // burned on the current host's sim clock), re-resolves the
        // placement through the fleet router and restamps.
        auto submitFenced = [&](serve::TenantId id) {
            serve::TenantClient& c = *clients[id];
            for (int attempt = 0; attempt < 6; ++attempt) {
                Status st =
                    fleet.submitStamped(id, c.nextStampedRequest());
                if (st.isOk()) {
                    ++submitted;
                    return true;
                }
                c.onDropped();  // that seal never reached a server
                if (st.code() != Err::WrongEpoch) return false;
                ++redirects;
                const std::uint64_t backoff = c.onWrongEpoch();
                if (serve::TenantService* host = fleet.hostOf(id)) {
                    host->registry().urts().machine().charge(backoff);
                }
                const auto p = fleet.placement(id);
                if (p.epoch != 0) c.onPlacement(p.epoch, p.incarnation);
            }
            return false;
        };

        auto drainFleet = [&]() {
            std::set<serve::TenantId> rebuiltSeen;
            for (serve::Completion& done : fleet.drainAll()) {
                latency.add(done.latencyCycles);
                if (done.tenantRebuilt &&
                    rebuiltSeen.insert(done.tenant).second) {
                    clients[done.tenant]->onTenantRebuilt();
                }
                if (done.ok) {
                    if (clients[done.tenant]->onResponse(
                            done.sealedResponse)) {
                        ++verifiedPer[done.tenant];
                        ++verified;
                    }
                } else if (done.status.isOk()) {
                    ++silentEmpties;
                } else {
                    ++typedErrors;
                    if (!done.tenantRebuilt) {
                        clients[done.tenant]->onDropped();
                    }
                    ++owed[done.tenant];
                }
            }
        };

        // Resubmits everything owed (requests that failed typed during a
        // wedge) until the fleet settles or the bound trips.
        auto settle = [&](int bound) {
            for (int i = 0; i < bound; ++i) {
                std::uint64_t pending = 0;
                for (std::uint64_t t = 0; t < nTenants; ++t) {
                    while (owed[t] > 0) {
                        --owed[t];
                        if (!submitFenced(serve::TenantId(t))) {
                            ++owed[t];
                            break;
                        }
                        ++pending;
                    }
                }
                if (pending == 0) return;
                fleet.pumpAll();
                supA.tick();
                supB.tick();
                drainFleet();
            }
        };

        auto crashPlan = fault::FaultPlan::parse("gateway-crash@n=1");
        auto degradePlan = fault::FaultPlan::parse("host-degrade@n=1");
        crashPlan.orThrow("crash plan");
        degradePlan.orThrow("degrade plan");
        fault::FaultInjector crashInjector(crashPlan.value(), 11);
        fault::FaultInjector degradeInjector(degradePlan.value(), 13);

        std::uint64_t bClockAtDegrade = 0;
        for (std::uint64_t round = 0; round < perTenant; ++round) {
            if (round == 6) {
                hosts.hostA.machine.setFaultInjector(&crashInjector);
            }
            if (round == 12) {
                hosts.hostA.machine.setFaultInjector(&degradeInjector);
                bClockAtDegrade = hosts.hostB.machine.clock().cycles();
            }
            for (std::uint64_t t = 0; t < nTenants; ++t) {
                if (!submitFenced(serve::TenantId(t))) {
                    ++owed[t];  // retried by settle below
                }
            }
            fleet.pumpAll();
            supA.tick();
            supB.tick();
            drainFleet();
            settle(12);
        }
        settle(40);
        fleet.pumpAll();
        drainFleet();
        const std::uint64_t recoveryCycles =
            hosts.hostB.machine.clock().cycles() - bClockAtDegrade;

        std::uint64_t failures = 0;
        for (const auto& client : clients) {
            failures += client->failures();
        }
        std::uint64_t shortTenants = 0;
        for (std::uint64_t v : verifiedPer) {
            if (v < perTenant) ++shortTenants;
        }
        const auto& sa = supA.stats();
        const std::uint64_t wedges = sa.wedges + supB.stats().wedges;
        const std::uint64_t faultsFired = crashInjector.totalInjected() +
                                          degradeInjector.totalInjected();

        std::printf("\n  tenants %llu, verified %llu/%llu, failures %llu, "
                    "silent empties %llu\n",
                    (unsigned long long)nTenants,
                    (unsigned long long)verified,
                    (unsigned long long)total,
                    (unsigned long long)failures,
                    (unsigned long long)silentEmpties);
        std::printf("  wedges %llu (kick %llu, tenant rebuild %llu, "
                    "subtree rebuild %llu, evacuations %llu/%llu)\n",
                    (unsigned long long)wedges,
                    (unsigned long long)sa.kicks,
                    (unsigned long long)sa.tenantRebuilds,
                    (unsigned long long)sa.subtreeRebuilds,
                    (unsigned long long)sa.evacuations,
                    (unsigned long long)nTenants);
        std::printf("  epoch redirects %llu, typed errors %llu, "
                    "faults fired %llu\n",
                    (unsigned long long)redirects,
                    (unsigned long long)typedErrors,
                    (unsigned long long)faultsFired);
        std::printf("  detection cycles:  p50 %llu  p95 %llu\n",
                    (unsigned long long)sa.detectionLatency.p50(),
                    (unsigned long long)sa.detectionLatency.p95());
        std::printf("  evacuation cycles: p50 %llu  p95 %llu\n",
                    (unsigned long long)sa.evacuationLatency.p50(),
                    (unsigned long long)sa.evacuationLatency.p95());
        std::printf("  time to full recovery after degrade: %llu cycles\n",
                    (unsigned long long)recoveryCycles);

        json.set("evac_target", double(total));
        json.set("evac_submitted", double(submitted));
        json.set("evac_verified", double(verified));
        json.set("evac_integrity_failures", double(failures));
        json.set("evac_silent_empties", double(silentEmpties));
        json.set("evac_typed_errors", double(typedErrors));
        json.set("evac_redirects", double(redirects));
        json.set("evac_evacuations", double(sa.evacuations));
        json.set("evac_failed", double(sa.evacuationFailures));
        json.set("evac_p50_cycles", double(sa.evacuationLatency.p50()));
        json.set("evac_p95_cycles", double(sa.evacuationLatency.p95()));
        json.set("evac_recovery_cycles", double(recoveryCycles));
        json.set("supervise_wedges", double(wedges));
        json.set("supervise_kicks", double(sa.kicks));
        json.set("supervise_tenant_rebuilds", double(sa.tenantRebuilds));
        json.set("supervise_subtree_rebuilds", double(sa.subtreeRebuilds));
        json.set("supervise_detection_p50",
                 double(sa.detectionLatency.p50()));
        json.set("supervise_detection_p95",
                 double(sa.detectionLatency.p95()));
        json.set("supervise_faults_fired", double(faultsFired));

        if (verified != total || failures > 0 || silentEmpties > 0 ||
            shortTenants > 0) {
            std::fprintf(stderr,
                         "FAIL: supervision run must verify every request "
                         "(%llu/%llu, %llu failures, %llu silent empties, "
                         "%llu tenants short)\n",
                         (unsigned long long)verified,
                         (unsigned long long)total,
                         (unsigned long long)failures,
                         (unsigned long long)silentEmpties,
                         (unsigned long long)shortTenants);
            return 1;
        }
        if (faultsFired < 2 || wedges < 1 || sa.subtreeRebuilds < 1 ||
            sa.evacuations < nTenants || sa.evacuationFailures > 0) {
            std::fprintf(stderr,
                         "FAIL: supervision run must fire both faults "
                         "(got %llu), wedge (got %llu), subtree-rebuild "
                         "(got %llu) and evacuate every tenant "
                         "(got %llu/%llu with %llu failures)\n",
                         (unsigned long long)faultsFired,
                         (unsigned long long)wedges,
                         (unsigned long long)sa.subtreeRebuilds,
                         (unsigned long long)sa.evacuations,
                         (unsigned long long)nTenants,
                         (unsigned long long)sa.evacuationFailures);
            return 1;
        }
        if (redirects < 1 || sa.detectionLatency.count() == 0 ||
            sa.evacuationLatency.count() == 0) {
            std::fprintf(stderr,
                         "FAIL: supervision run must fence epochs "
                         "(%llu redirects) and record latencies "
                         "(%zu detection, %zu evacuation samples)\n",
                         (unsigned long long)redirects,
                         sa.detectionLatency.count(),
                         sa.evacuationLatency.count());
            return 1;
        }
    }

    json.write();
    return 0;
}
