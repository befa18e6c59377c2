/**
 * nesgx_serve: multi-tenant serving demo over the emulated nested-SGX
 * machine. Spins up N tenants (one inner enclave each, pooled into
 * shared gateway outers), pushes a closed-loop request stream through
 * the admission controller and worker pool, and verifies every sealed
 * response client-side. The flags are listed in kUsage (--help).
 *
 * The run itself is a serve::Scenario (scenario.h; what each flag drives
 * is in DESIGN §10-16), shared with bench_serve: this binary maps flags
 * onto it, prints the result, and applies the gates below. --chaos SEED
 * defaults to a 24-tenant 4x-oversubscribed run with the default fault
 * plan (seeded by SEED) and a fault-free recovery phase.
 *
 * Exit codes are part of the CI contract:
 *  0  every sealed response verified and all gates passed;
 *  1  integrity / attestation / self-healing failure: a refused
 *     onboarding (e.g. a depth forced with --attest-expect-depth), a
 *     response that failed verification or failed without a typed
 *     error, a tenant that never recovered once faults stopped, a chaos
 *     run that fired fewer than 5 distinct fault sites or rebuilt no
 *     tenant, supervised chaos whose watchdog never acted, or --migrate
 *     with no committed move;
 *  2  flag error: an unknown flag or stray argument, a malformed number,
 *     an unknown topology, a malformed --faults spec, or a scenario
 *     Scenario::validate refuses. The diagnostic, with a "did you mean"
 *     for typo'd flag and fault-site names, goes to stderr.
 */
#include <cstdio>

#include "serve/scenario.h"
#include "support/flags.h"

namespace {

using namespace nesgx;

const char* kUsage =
    "usage: nesgx_serve [--tenants N] [--requests N] [--batch N]\n"
    "                   [--epc-pages N] [--deadline CYCLES]\n"
    "                   [--queue-depth N] [--threads N]\n"
    "                   [--topology flat|cvm] [--switchless 1]\n"
    "                   [--chrome-trace PATH] [--faults SPEC]\n"
    "                   [--fault-seed N] [--chaos SEED] [--attest 0|1]\n"
    "                   [--attest-expect-depth N] [--migrate K]\n"
    "                   [--supervise 1] [--help]\n"
    "\n"
    "  --faults arms the deterministic injector with a site@trigger\n"
    "  spec, e.g. \"ewb-corrupt@n=3;eenter-fail@every=40\"; a typo'd\n"
    "  site or trigger name is a flag error with a suggestion.\n"
    "  --supervise 1 attaches the failure-domain watchdog (wedge\n"
    "  detection, escalation ladder, evacuation).\n"
    "\n"
    "exit codes:\n"
    "  0  every sealed response verified and all gates passed\n"
    "  1  integrity/attestation/self-healing failure\n"
    "  2  flag error (unknown topology, malformed --faults spec)\n";

/** One "  label<padding>: value" line of the run report. */
void
row(const char* label, std::uint64_t value)
{
    std::printf("  %-20s: %llu\n", label, (unsigned long long)value);
}

}  // namespace

int
main(int argc, char** argv)
{
    Flags flags(argc, argv, {"help"});
    if (flags.has("help")) {
        std::printf("%s", kUsage);
        return 0;
    }

    serve::Scenario s;
    s.chaos = flags.has("chaos");
    const std::uint64_t chaosSeed = flags.u64("chaos", 0);
    const std::string topology = flags.str("topology", "flat");
    s.cvm = topology == "cvm";
    s.tenants = flags.u64("tenants", s.chaos ? 24 : s.tenants);
    s.requests = flags.u64("requests", s.chaos ? 960 : s.requests);
    s.batch = flags.u64("batch", s.batch);
    // The cvm tree's root + per-gateway TCS pools are unevictable, so
    // its pressure runs need a slightly larger (still heavily
    // oversubscribed) EPC floor.
    s.epcPages =
        flags.u64("epc-pages", s.chaos ? (s.cvm ? 1280 : 1024) : s.epcPages);
    s.deadline = flags.u64("deadline", s.deadline);
    s.queueDepth = flags.u64("queue-depth", s.queueDepth);
    s.switchless = flags.toggle("switchless", s.switchless);
    s.threads = flags.u64("threads", s.threads);
    s.chromeTrace = flags.str("chrome-trace", s.chromeTrace);
    s.attest = flags.toggle("attest", s.attest);
    s.attestExpectDepth =
        flags.u64("attest-expect-depth", s.attestExpectDepth);
    s.migrateEvery = flags.u64("migrate", s.migrateEvery);
    s.supervise = flags.toggle("supervise", s.supervise);
    s.faults = flags.str("faults", s.faults);
    s.faultSeed = flags.u64("fault-seed", s.chaos ? chaosSeed : s.faultSeed);
    flags.finish();

    if (topology != "flat" && topology != "cvm") {
        std::fprintf(stderr, "error: --topology must be flat or cvm\n");
        return 2;
    }
    std::string why;
    if (!s.validate(&why)) {
        std::fprintf(stderr, "error: %s\n", why.c_str());
        return 2;
    }

    const serve::ScenarioResult r = s.run();
    if (!r.status) {
        std::fprintf(stderr, "error: %s\n", r.error.c_str());
        return 1;
    }
    const bool faulted = !s.faultPlan().empty();
    const trace::StatsCounters& c = r.counters;

    std::printf("nesgx_serve: %llu tenants, %llu requests%s%s\n",
                (unsigned long long)s.tenants,
                (unsigned long long)r.submitted, s.cvm ? " [cvm depth-3]" : "",
                s.chaos ? " [chaos]" : "");
    row("gateways", r.gateways);
    row("verified ok", r.verified);
    row("integrity failures", r.failures);
    row("shed (deadline)", r.shed);
    row("backpressured", r.backpressured);
    std::printf("  batches             : %llu (%.2f req/batch)\n",
                (unsigned long long)c.serveBatches,
                c.serveBatches ? double(c.serveBatchedRequests) /
                                     double(c.serveBatches)
                               : 0.0);
    std::printf("  tenant evictions    : %llu (reloads %llu)\n",
                (unsigned long long)c.serveTenantEvictions,
                (unsigned long long)c.serveTenantReloads);
    std::printf("  EENTER/NEENTER      : %llu / %llu\n",
                (unsigned long long)c.eenterCount,
                (unsigned long long)c.neenterCount);
    if (s.switchless) {
        std::printf("  switchless          : %llu channels, %llu ring calls, "
                    "%llu polls\n",
                    (unsigned long long)r.switchlessChannels,
                    (unsigned long long)r.ringCalls,
                    (unsigned long long)c.switchlessPolls);
        std::printf("  transitions/request : %.4f (post-arming)\n",
                    r.submitted ? double(r.transitions) / double(r.submitted)
                                : 0.0);
    }
    std::printf("  latency cycles      : p50 %llu  p95 %llu  p99 %llu\n",
                (unsigned long long)r.latency.p50(),
                (unsigned long long)r.latency.p95(),
                (unsigned long long)r.latency.p99());
    if (s.attest) {
        std::printf("  attested onboarding : %llu tenants (session keys "
                    "EGETKEY-rooted)\n",
                    (unsigned long long)s.tenants);
    }
    if (s.migrateEvery > 0) {
        const auto& ms = r.migration;
        std::printf("  --- live migration ---\n");
        std::printf("  migrations          : %llu attempted, %llu "
                    "committed, %llu aborted (%llu rolled back)\n",
                    (unsigned long long)ms.attempts,
                    (unsigned long long)ms.gatewayMoves,
                    (unsigned long long)ms.aborted,
                    (unsigned long long)ms.rolledBack);
        row("pages drained", ms.pagesDrained);
        std::printf("  migration cycles    : p50 %llu  p95 %llu\n",
                    (unsigned long long)ms.latency.p50(),
                    (unsigned long long)ms.latency.p95());
    }

    if (faulted) {
        std::printf("  --- fault injection / self-healing ---\n");
        row("faults injected", r.faultsInjected);
        for (std::size_t site = 0; site < fault::kFaultSiteCount; ++site) {
            if (r.injectedAt[site] == 0) continue;
            std::printf("    %-17s : %llu (of %llu occurrences)\n",
                        fault::siteName(fault::FaultSite(site)),
                        (unsigned long long)r.injectedAt[site],
                        (unsigned long long)r.occurrencesAt[site]);
        }
        row("typed errors", r.typedErrors);
        for (std::size_t e = 0; e < kErrCount; ++e) {
            if (r.typedByErr[e] == 0) continue;
            std::printf("    %-17s : %llu\n", errName(Err(e)),
                        (unsigned long long)r.typedByErr[e]);
        }
        row("silent empties", r.silentEmpties);
        row("retries", r.retries);
        std::printf("  tenant rebuilds     : %llu (subtree %llu)\n",
                    (unsigned long long)r.rebuilds,
                    (unsigned long long)r.subtreeRebuilds);
        std::printf("  breaker open/close  : %llu / %llu\n",
                    (unsigned long long)r.breakerOpens,
                    (unsigned long long)r.breakerCloses);
        row("watermark misses", r.watermarkMisses);
        if (!r.rebuildLatency.empty()) {
            std::printf("  rebuild cycles      : p50 %llu  p95 %llu\n",
                        (unsigned long long)r.rebuildLatency.p50(),
                        (unsigned long long)r.rebuildLatency.p95());
        }
        std::printf("  recovered tenants   : %llu / %llu\n",
                    (unsigned long long)r.recovered,
                    (unsigned long long)s.tenants);
    }
    const auto& ss = r.supervision;
    if (s.supervise) {
        std::printf("  --- supervision ---\n");
        std::printf("  watchdog ticks      : %llu (wedges %llu)\n",
                    (unsigned long long)ss.ticks,
                    (unsigned long long)ss.wedges);
        std::printf("  ladder actions      : kick %llu, tenant rebuild "
                    "%llu, subtree rebuild %llu, evacuate %llu\n",
                    (unsigned long long)ss.kicks,
                    (unsigned long long)ss.tenantRebuilds,
                    (unsigned long long)ss.subtreeRebuilds,
                    (unsigned long long)ss.evacuations);
        if (!ss.detectionLatency.empty()) {
            std::printf("  detection cycles    : p50 %llu  p95 %llu\n",
                        (unsigned long long)ss.detectionLatency.p50(),
                        (unsigned long long)ss.detectionLatency.p95());
        }
    }
    if (!s.chromeTrace.empty()) {
        std::printf("  [chrome trace written to %s]\n", s.chromeTrace.c_str());
    }

    bool fail = r.failures > 0 || r.silentEmpties > 0;
    if (r.failures > 0) {
        std::fprintf(stderr, "FAIL: %llu integrity failures\n",
                     (unsigned long long)r.failures);
    }
    if (r.silentEmpties > 0) {
        std::fprintf(stderr, "FAIL: %llu completions failed without a "
                             "typed error\n",
                     (unsigned long long)r.silentEmpties);
    }
    if (faulted && r.recovered < s.tenants) {
        std::fprintf(stderr, "FAIL: only %llu/%llu tenants recovered\n",
                     (unsigned long long)r.recovered,
                     (unsigned long long)s.tenants);
        fail = true;
    }
    if (s.chaos) {
        if (r.faultsInjected == 0 || r.faultSites < 5) {
            std::fprintf(stderr,
                         "FAIL: chaos run injected %llu faults at %llu "
                         "sites (need > 0 at >= 5 sites)\n",
                         (unsigned long long)r.faultsInjected,
                         (unsigned long long)r.faultSites);
            fail = true;
        }
        if (r.rebuilds == 0) {
            std::fprintf(stderr, "FAIL: chaos run rebuilt no tenant\n");
            fail = true;
        }
        // Supervised chaos armed the failure-domain sites, and a
        // crashed gateway / wedged poller only heals through the
        // watchdog: the run is broken if the ladder never fired. (Which
        // rung fires depends on the dispatch path — classic dispatch
        // trips gateway-crash into subtree rebuilds, the switchless path
        // trips poller-wedge into kicks.)
        if (s.supervise) {
            const std::uint64_t ladderActions =
                ss.kicks + ss.tenantRebuilds + ss.subtreeRebuilds +
                ss.evacuations;
            if (ss.wedges == 0 || ladderActions == 0) {
                std::fprintf(stderr,
                             "FAIL: supervised chaos run must wedge (got "
                             "%llu) and act (got %llu ladder actions)\n",
                             (unsigned long long)ss.wedges,
                             (unsigned long long)ladderActions);
                fail = true;
            }
        }
    }
    if (s.migrateEvery > 0 && r.migration.gatewayMoves == 0) {
        std::fprintf(stderr, "FAIL: --migrate armed but no live "
                             "migration committed\n");
        fail = true;
    }
    if (fail) return 1;
    std::printf("OK\n");
    return 0;
}
