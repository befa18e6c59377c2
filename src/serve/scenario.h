/**
 * serve::Scenario — the one definition of a serving run, shared by the
 * nesgx_serve CLI, bench_serve and the tests (DESIGN §10).
 *
 * A Scenario's fields are the nesgx_serve flags (plus the bench's
 * open-loop arrival mode). run() owns everything a serving run needs
 * between "parameters" and "numbers": the simulated world and its
 * PRM/core sizing, the CVM root's TCS/heap sizing, the breaker settings
 * under faults, the lossless-only sql mix, attested onboarding,
 * switchless arming with the post-arming transition snapshot, fault
 * injection armed only after setup, the closed/open submit loop with
 * mid-run migration and supervisor ticks, verify/typed/silent-empty
 * accounting, the fault-free recovery phase, and the chaos plan. Callers
 * keep only what differs between them: flag parsing, printing, gates.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "fault/injector.h"
#include "migrate/engine.h"
#include "serve/histogram.h"
#include "supervise/supervisor.h"
#include "trace/stats.h"
#include "support/status.h"

namespace nesgx::serve {

/** Upper bounds Scenario::validate enforces. Tenants: the onboarding
 *  loop builds every one up front. Requests: a run must end in bounded
 *  time. */
constexpr std::uint64_t kMaxScenarioTenants = 1u << 16;
constexpr std::uint64_t kMaxScenarioRequests = 1ull << 32;

/** Everything one Scenario::run() measured. */
struct ScenarioResult {
    /** Ok, or why the run stopped early (onboarding refusal, a submit
     *  error, an unwritable trace); `error` then says where. */
    Status status;
    std::string error;

    std::uint64_t submitted = 0;
    std::uint64_t verified = 0;
    std::uint64_t failures = 0;  ///< client-side integrity failures
    std::uint64_t backpressured = 0;
    std::uint64_t shed = 0;
    std::uint64_t gateways = 0;
    std::uint64_t watermarkMisses = 0;
    trace::StatsCounters counters;  ///< the trace bus counters at the end
    /** EENTER+NEENTER after the post-arming snapshot: the request-path
     *  transition count the per-request figure divides. */
    std::uint64_t transitions = 0;
    std::uint64_t switchlessChannels = 0;
    std::uint64_t ringCalls = 0;
    Histogram latency;
    std::uint64_t simCycles = 0;  ///< the machine clock when the run ended

    // Fault injection and self-healing (zero without a fault plan).
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultSites = 0;  ///< distinct sites that actually fired
    std::array<std::uint64_t, fault::kFaultSiteCount> injectedAt{};
    std::array<std::uint64_t, fault::kFaultSiteCount> occurrencesAt{};
    std::uint64_t typedErrors = 0;
    std::array<std::uint64_t, kErrCount> typedByErr{};
    std::uint64_t silentEmpties = 0;  ///< ok == false without a typed error
    std::uint64_t retries = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t subtreeRebuilds = 0;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerCloses = 0;
    std::uint64_t recovered = 0;  ///< tenants verified again after faults
    Histogram rebuildLatency;

    migrate::MigrationStats migration;
    supervise::SupervisorStats supervision;
};

struct Scenario {
    std::uint64_t tenants = 8;
    std::uint64_t requests = 200;
    std::uint64_t batch = 8;
    std::uint64_t epcPages = 0;    ///< 0 = ample EPC; else shrink the PRM
    std::uint64_t deadline = 0;    ///< relative cycles; 0 = no shedding
    std::uint64_t queueDepth = 64;
    bool cvm = false;              ///< depth-3 CVM -> gateway -> tenant tree
    bool switchless = false;       ///< exit-less ring dispatch
    std::string chromeTrace;       ///< trace output path; empty = none
    std::string faults;            ///< FaultPlan spec; empty = none
    std::uint64_t faultSeed = 1;
    /** Arms the chaos plan when `faults` is empty. */
    bool chaos = false;
    bool attest = true;            ///< NEREPORT-gated onboarding
    std::uint64_t attestExpectDepth = 0;  ///< 0 = topology's own depth
    /** Every N submitted requests, live-migrate the next tenant (round
     *  robin) to another gateway; 0 = no migrations. */
    std::uint64_t migrateEvery = 0;
    bool supervise = false;        ///< failure-domain watchdog
    /** Burst the whole volume before pumping instead of pumping once per
     *  full round of batches. */
    bool openLoop = false;

    /** The fault plan run() arms: `faults`, else under `chaos` the
     *  default multi-site plan plus the migration/supervision sites the
     *  scenario enables; empty = no injector. */
    std::string faultPlan() const;

    /** Err::InvalidConfig (with a reason in `why`) for a scenario that
     *  cannot run: zero or too many tenants/requests, an EPC
     *  larger than the PRM can hold, a migration period no request
     *  reaches, a malformed fault plan, or an invalid service config. */
    Status validate(std::string* why = nullptr) const;

    /** Builds the world, serves the whole request stream, and (with a
     *  fault plan) runs the recovery phase. Validates first. */
    ScenarioResult run() const;
};

}  // namespace nesgx::serve
