/**
 * nesgx_perfbench: the nesgx benchmark driver.
 *
 *   nesgx_perfbench --workload warm|oversub|fleet --seed N
 *                   --seconds S --trace 0|1 [--spans PATH]
 *   nesgx_perfbench --selftest
 *   nesgx_perfbench --list-metrics
 *
 * Drives the serving stack through its public API only (TenantService,
 * TenantClient, TraceBus::subscribe) as a single-process closed loop
 * with one driver thread: every round submits one full batch per tenant,
 * pumps, drains, and verifies every sealed response client-side before
 * the next round starts. A closed loop because nesgx users run fixed
 * request volumes; an arrival schedule on the host clock would measure
 * the host scheduler, not the model. Every workload is pumped serially;
 * the worker pool's real threads (pumpParallel) are not measured.
 *
 * Two clocks, always named: host seconds (steady_clock) and simulated
 * cycles (Machine::clock). Simulated figures come from a fixed window of
 * rounds, so every workload repeats them exactly for one seed; host
 * figures come from every round after warm-up until --seconds elapse.
 *
 * --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
 * serves an untraced world and a traced one (SpanSink subscribed from
 * construction) round by round in alternation and prints the per-layer
 * metrics; the two worlds' simulated figures and TraceBus counters must
 * match exactly or the run fails.
 *
 * The last stdout line is one JSON object: correct / attempted / failed
 * / metrics. Exit 1 on any unverified response, onboarding refusal or
 * traced/untraced mismatch; exit 2 on a flag error.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/service.h"
#include "span_sink.h"

namespace {

using namespace nesgx;
using perfbench::Phase;
using perfbench::SpanSink;
using HostClock = std::chrono::steady_clock;

std::int64_t
nsSince(HostClock::time_point t0, HostClock::time_point t1)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
        .count();
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- metric tables ----------------------------------------------------------

struct MetricDef {
    const char* name;
    const char* unit;
};

/** Printed by --trace 0 (untraced run). */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"req_per_s", "1/s"},
    {"sim_p50_cycles", "cycles"},
    {"sim_p99_cycles", "cycles"},
    {"sim_cycles_per_req", "cycles"},
    {"peak_rss_mb", "MB"},
};

/** Printed by --trace 1 (traced run), named by module. */
constexpr MetricDef kPerLayer[] = {
    {"serve.onboard_ms_p50", "ms"},
    {"serve.onboard_ms_p99", "ms"},
    {"serve.onboard_self_ms", "ms"},
    {"sgx.eextend_us", "us"},
    {"sgx.einit_us", "us"},
    {"sgx.nereport_us", "us"},
    {"client.seal_ns", "ns"},
    {"client.verify_ns", "ns"},
    {"serve.submit_ns", "ns"},
    {"sdk.ecall_self_ns_per_req", "ns"},
    {"sdk.ecall_sim_cycles_per_req", "cycles"},
    {"sgx.ewb_us_per_page", "us"},
    {"sgx.eldu_us_per_page", "us"},
    {"sgx.paged_pages_per_req", "count"},
    {"sgx.paging_sim_cycles_per_req", "cycles"},
    {"sgx.paging_pump_frac", "fraction"},
    {"serve.evictions_per_kreq", "count"},
    {"serve.reloads_per_kreq", "count"},
    {"serve.watermark_misses", "count"},
    {"os.victim_picks_per_evict", "count"},
    {"serve.pump_self_ns_per_req", "ns"},
    {"serve.pump_ns_per_req", "ns"},
    {"serve.req_per_batch", "count"},
    {"sgx.transitions_per_req", "count"},
    {"sgx.transition_host_ns", "ns"},
    {"sgx.transition_sim_cycles", "cycles"},
    {"hw.tlb_misses_per_req", "count"},
    {"hw.nested_checks_per_req", "count"},
    {"hw.closure_hit_frac", "fraction"},
    {"hw.mee_lines_per_req", "count"},
    {"trace.overhead_frac", "fraction"},
};

// --- workloads --------------------------------------------------------------

/**
 * Why each workload exists is recorded in README.md; in short: warm is
 * the request path with paging bypassed, oversub makes every batch pay
 * a tenant reload (EWB/ELDU page crypto), and fleet makes onboarding and
 * victim search over hundreds of enclaves dominate.
 */
struct WorkloadSpec {
    const char* name;
    std::uint32_t tenants;
    std::uint64_t epcPages;  ///< 0 = the machine's default (ample) EPC
    std::uint32_t setups;    ///< world set-ups timed for setup_s
    std::uint32_t warmupRounds;
    std::uint32_t windowRounds;  ///< fixed simulated-clock window
};

constexpr WorkloadSpec kWorkloads[] = {
    {"warm", 24, 0, 5, 2, 8},
    {"oversub", 24, 1024, 5, 1, 6},
    {"fleet", 240, 7000, 3, 1, 1},
};

constexpr std::size_t kBatch = 8;
/** Host throughput is sampled over chunks of whole rounds, each chunk
 *  at least this long. */
constexpr double kChunkSeconds = 0.05;
constexpr std::uint32_t kTenantsPerOuter = 4;

// --- seeded inputs ----------------------------------------------------------

std::uint64_t
splitmix(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Everything the seed decides. The program sees only these inputs. */
struct Inputs {
    std::uint64_t rngSeed = 0;     ///< Machine::Config::rngSeed
    serve::TenantId idBase = 0;    ///< tenant ids (and client streams)
    std::array<serve::Workload, 3> mix{};  ///< tenant i runs mix[i % 3]
};

Inputs
inputsFor(std::uint64_t seed)
{
    std::uint64_t state = seed;
    Inputs in;
    in.rngSeed = splitmix(state);
    in.idBase = serve::TenantId(1 + (splitmix(state) % 1'000'000) * 64);
    static constexpr std::array<std::array<serve::Workload, 3>, 6> kOrders = {{
        {serve::Workload::Echo, serve::Workload::Sql, serve::Workload::Svm},
        {serve::Workload::Echo, serve::Workload::Svm, serve::Workload::Sql},
        {serve::Workload::Sql, serve::Workload::Echo, serve::Workload::Svm},
        {serve::Workload::Sql, serve::Workload::Svm, serve::Workload::Echo},
        {serve::Workload::Svm, serve::Workload::Echo, serve::Workload::Sql},
        {serve::Workload::Svm, serve::Workload::Sql, serve::Workload::Echo},
    }};
    in.mix = kOrders[splitmix(state) % kOrders.size()];
    return in;
}

// --- the world --------------------------------------------------------------

sgx::Machine::Config
machineConfig(const WorkloadSpec& spec, const Inputs& in)
{
    sgx::Machine::Config mc;
    mc.rngSeed = in.rngSeed;
    if (spec.epcPages > 0) {
        // Shrink the PRM so the EPC holds `epcPages` usable pages.
        mc.prmBytes = (spec.epcPages + 64) * hw::kPageSize;
    }
    return mc;
}

serve::TenantService::Config
serviceConfig()
{
    serve::TenantService::Config sc;
    sc.registry.tenantsPerOuter = kTenantsPerOuter;
    sc.pool.batchSize = kBatch;
    sc.attestOnboarding = true;
    return sc;
}

/** One machine + kernel + service + clients; optionally traced from the
 *  moment the machine exists. */
class World {
  public:
    World(const WorkloadSpec& spec, const Inputs& in, bool traced)
        : spec_(spec), in_(in), machine_(machineConfig(spec, in)),
          sink_(traced ? attachSink(machine_) : nullptr), kernel_(machine_),
          pid_(kernel_.createProcess()), urts_(kernel_, pid_),
          service_(urts_, serviceConfig())
    {
        for (hw::CoreId c = 0; c < machine_.coreCount(); ++c) {
            kernel_.schedule(c, pid_);
        }
    }

    ~World()
    {
        if (sink_) machine_.trace().unsubscribe(sink_.get());
    }

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    /** Attested onboarding of every tenant. A refusal is fatal: the
     *  benchmark never skips a tenant. */
    bool onboard(serve::Histogram* onboardNs)
    {
        for (std::uint32_t i = 0; i < spec_.tenants; ++i) {
            const serve::TenantId id = in_.idBase + i;
            const serve::Workload workload = in_.mix[i % in_.mix.size()];
            const auto t0 = HostClock::now();
            if (sink_) sink_->begin("serve.onboard");
            auto handle = service_.addTenant(id, workload);
            if (sink_) sink_->end("serve.onboard");
            if (onboardNs) {
                onboardNs->add(std::uint64_t(nsSince(t0, HostClock::now())));
            }
            if (!handle) {
                std::fprintf(stderr,
                             "error: tenant %u refused at onboarding: %s\n",
                             id, handle.status().name());
                return false;
            }
            const Bytes key = service_.sessionKeyFor(id);
            if (key.empty()) {
                std::fprintf(stderr,
                             "error: tenant %u onboarded without an "
                             "attested session key\n",
                             id);
                return false;
            }
            clients_.push_back(
                std::make_unique<serve::TenantClient>(id, workload, key));
        }
        return true;
    }

    sgx::Machine& machine() { return machine_; }
    serve::TenantService& service() { return service_; }
    SpanSink* sink() { return sink_.get(); }
    serve::TenantClient& client(serve::TenantId id)
    {
        return *clients_[id - in_.idBase];
    }
    std::vector<std::unique_ptr<serve::TenantClient>>& clients()
    {
        return clients_;
    }
    const WorkloadSpec& spec() const { return spec_; }

  private:
    static std::unique_ptr<SpanSink> attachSink(sgx::Machine& machine)
    {
        auto sink = std::make_unique<SpanSink>(machine.clock());
        machine.trace().subscribe(sink.get());
        return sink;
    }

    const WorkloadSpec& spec_;
    Inputs in_;
    sgx::Machine machine_;
    std::unique_ptr<SpanSink> sink_;
    os::Kernel kernel_;
    os::Pid pid_;
    sdk::Urts urts_;
    serve::TenantService service_;
    std::vector<std::unique_ptr<serve::TenantClient>> clients_;
};

// --- counters ---------------------------------------------------------------

using CounterField = Counter trace::StatsCounters::*;

/** Every TraceBus counter, for the observation-neutrality check. */
constexpr std::pair<const char*, CounterField> kCounters[] = {
    {"tlbMisses", &trace::StatsCounters::tlbMisses},
    {"tlbHits", &trace::StatsCounters::tlbHits},
    {"nestedChecks", &trace::StatsCounters::nestedChecks},
    {"accessFaults", &trace::StatsCounters::accessFaults},
    {"eenterCount", &trace::StatsCounters::eenterCount},
    {"eexitCount", &trace::StatsCounters::eexitCount},
    {"neenterCount", &trace::StatsCounters::neenterCount},
    {"neexitCount", &trace::StatsCounters::neexitCount},
    {"aexCount", &trace::StatsCounters::aexCount},
    {"eresumeCount", &trace::StatsCounters::eresumeCount},
    {"ipiCount", &trace::StatsCounters::ipiCount},
    {"meeLines", &trace::StatsCounters::meeLines},
    {"llcHitLines", &trace::StatsCounters::llcHitLines},
    {"tlbFlushes", &trace::StatsCounters::tlbFlushes},
    {"flushesAvoided", &trace::StatsCounters::flushesAvoided},
    {"closureCacheHits", &trace::StatsCounters::closureCacheHits},
    {"closureCacheMisses", &trace::StatsCounters::closureCacheMisses},
    {"taggedLookupRejects", &trace::StatsCounters::taggedLookupRejects},
    {"victimPicks", &trace::StatsCounters::victimPicks},
    {"serveBatches", &trace::StatsCounters::serveBatches},
    {"serveBatchedRequests", &trace::StatsCounters::serveBatchedRequests},
    {"serveSheds", &trace::StatsCounters::serveSheds},
    {"serveTenantEvictions", &trace::StatsCounters::serveTenantEvictions},
    {"serveTenantReloads", &trace::StatsCounters::serveTenantReloads},
    {"faultsInjected", &trace::StatsCounters::faultsInjected},
    {"serveRetries", &trace::StatsCounters::serveRetries},
    {"serveTenantRebuilds", &trace::StatsCounters::serveTenantRebuilds},
    {"serveTenantMigrations", &trace::StatsCounters::serveTenantMigrations},
    {"serveBreakerOpens", &trace::StatsCounters::serveBreakerOpens},
    {"serveBreakerCloses", &trace::StatsCounters::serveBreakerCloses},
    {"serveWatermarkMisses", &trace::StatsCounters::serveWatermarkMisses},
    {"switchlessPosts", &trace::StatsCounters::switchlessPosts},
    {"switchlessDrains", &trace::StatsCounters::switchlessDrains},
    {"switchlessFallbacks", &trace::StatsCounters::switchlessFallbacks},
    {"switchlessPolls", &trace::StatsCounters::switchlessPolls},
    {"superviseWedges", &trace::StatsCounters::superviseWedges},
    {"superviseEscalations", &trace::StatsCounters::superviseEscalations},
    {"superviseEvacuations", &trace::StatsCounters::superviseEvacuations},
    {"serveWrongEpochs", &trace::StatsCounters::serveWrongEpochs},
};

// --- the closed loop ----------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void
fnv1a(std::uint64_t& h, const Bytes& bytes)
{
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
}

/** The simulated-clock figures of one run's fixed window. */
struct SimFigures {
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::size_t samples = 0;
    double cyclesPerReq = 0;

    bool operator==(const SimFigures&) const = default;
};

struct ServeResult {
    // Every serve-phase round, warm-up included.
    std::uint64_t attempted = 0;
    std::uint64_t verified = 0;
    std::uint64_t refused = 0;         ///< submit errors (backpressure, ...)
    std::uint64_t typedErrors = 0;     ///< completions with ok == false
    std::uint64_t verifyFailures = 0;  ///< sealed responses that mismatched
    std::uint64_t lost = 0;            ///< admitted, never completed
    /** FNV-1a over the sealed requests of the warm-up and window rounds
     *  (the tail's length depends on host speed). */
    std::uint64_t digest = kFnvOffset;

    // Fixed window (simulated clock; deterministic for one seed).
    serve::Histogram latency;
    std::uint64_t windowVerified = 0;
    std::uint64_t windowCycles = 0;
    /** Process peak RSS when the window ends. The tail is left out: its
     *  length, and the state it grows (sql journals), scale with host
     *  speed. */
    double windowPeakRssMb = 0;
    trace::StatsCounters windowStart;
    trace::StatsCounters windowEnd;

    // Measured rounds: window + tail (host clock).
    std::vector<double> chunkRates;  ///< verified req per host second
    double measuredSeconds = 0;
    std::uint64_t measuredVerified = 0;
    std::int64_t sealNs = 0, submitNs = 0, verifyNs = 0, pumpNs = 0;
    std::uint64_t submits = 0, verifies = 0;

    SimFigures sim() const
    {
        SimFigures f;
        f.p50 = latency.p50();
        f.p99 = latency.p99();
        f.samples = latency.count();
        f.cyclesPerReq = windowVerified ? double(windowCycles) /
                                              double(windowVerified)
                                        : 0.0;
        return f;
    }

    std::uint64_t windowDelta(CounterField f) const
    {
        return std::uint64_t(windowEnd.*f) - std::uint64_t(windowStart.*f);
    }
};

enum class RoundKind { Warmup, Window, Tail };

/**
 * One world's closed loop: warm-up rounds, then the fixed window
 * (simulated figures), then tail rounds until enough host time is spent.
 *
 * Host throughput is sampled per chunk of whole rounds, closed once it
 * spans >= kChunkSeconds, so every chunk pays for its rounds' client
 * seals and verifies as well as their pumps: a warm chunk spans about a
 * dozen rounds, an oversub or fleet chunk one round. Only this world's
 * own work is timed, so two worlds can be stepped in alternation.
 */
class LoopDriver {
  public:
    explicit LoopDriver(World& world) : world_(world) {}

    void warmup()
    {
        if (SpanSink* sink = world_.sink()) sink->setPhase(Phase::Warmup);
        for (std::uint32_t i = 0; i < world_.spec().warmupRounds; ++i) {
            runRound(RoundKind::Warmup);
        }
        if (SpanSink* sink = world_.sink()) sink->setPhase(Phase::Window);
        r_.windowStart = world_.machine().trace().counters();
        windowCycles0_ = world_.machine().clock().cycles();
        chunkVerified_ = r_.verified;
    }

    /** One measured round: window rounds first, then tail rounds. */
    void step()
    {
        const bool window = windowRounds_ < world_.spec().windowRounds;
        runRound(window ? RoundKind::Window : RoundKind::Tail);
        if (window && ++windowRounds_ == world_.spec().windowRounds) {
            r_.windowCycles =
                world_.machine().clock().cycles() - windowCycles0_;
            r_.windowEnd = world_.machine().trace().counters();
            r_.windowPeakRssMb = peakRssMb();
            if (SpanSink* sink = world_.sink()) sink->setPhase(Phase::Tail);
        }
    }

    /** Window complete, one chunk closed, and `seconds` of own rounds. */
    bool done(double seconds) const
    {
        return windowRounds_ == world_.spec().windowRounds &&
               !r_.chunkRates.empty() && r_.measuredSeconds >= seconds;
    }

    const ServeResult& result() const { return r_; }

  private:
    /** A full batch per tenant, pump, drain, verify. */
    void runRound(RoundKind kind)
    {
        serve::TenantService& service = world_.service();
        const bool measured = kind != RoundKind::Warmup;
        lastTick_ = HostClock::now();
        std::uint64_t admitted = 0;
        for (auto& client : world_.clients()) {
            for (std::size_t k = 0; k < kBatch; ++k) {
                const auto t0 = HostClock::now();
                Bytes req = client->nextRequest();
                const auto t1 = HostClock::now();
                if (kind != RoundKind::Tail) fnv1a(r_.digest, req);
                const auto t2 = HostClock::now();
                Status st = service.submit(client->tenant(), std::move(req));
                const auto t3 = HostClock::now();
                ++r_.attempted;
                if (measured) {
                    r_.sealNs += nsSince(t0, t1);
                    r_.submitNs += nsSince(t2, t3);
                    ++r_.submits;
                }
                if (st) {
                    ++admitted;
                } else {
                    ++r_.refused;
                    client->onDropped();
                }
            }
        }

        SpanSink* sink = world_.sink();
        const auto p0 = HostClock::now();
        if (sink) sink->begin("serve.pump");
        service.pump();
        if (sink) sink->end("serve.pump");
        if (measured) r_.pumpNs += nsSince(p0, HostClock::now());
        const std::uint64_t completed = drainAndVerify(kind);
        if (completed < admitted) r_.lost += admitted - completed;
        if (measured) tick();
    }

    /** Verifies every completion so far; returns how many there were. */
    std::uint64_t drainAndVerify(RoundKind kind)
    {
        const bool measured = kind != RoundKind::Warmup;
        std::uint64_t completed = 0;
        for (serve::Completion& done : world_.service().drain()) {
            ++completed;
            if (kind == RoundKind::Window) r_.latency.add(done.latencyCycles);
            serve::TenantClient& client = world_.client(done.tenant);
            if (!done.ok) {
                ++r_.typedErrors;
                if (done.tenantRebuilt) {
                    client.onTenantRebuilt();
                } else {
                    client.onDropped();
                }
                continue;
            }
            const auto v0 = HostClock::now();
            const bool verified = client.onResponse(done.sealedResponse);
            if (measured) {
                r_.verifyNs += nsSince(v0, HostClock::now());
                ++r_.verifies;
            }
            if (!verified) {
                ++r_.verifyFailures;
                continue;
            }
            ++r_.verified;
            if (kind == RoundKind::Window) ++r_.windowVerified;
            if (measured) ++r_.measuredVerified;
        }
        return completed;
    }

    /** Charges the round just ended to the open chunk. */
    void tick()
    {
        const auto now = HostClock::now();
        const double dt = std::chrono::duration<double>(now - lastTick_).count();
        lastTick_ = now;
        r_.measuredSeconds += dt;
        chunkSeconds_ += dt;
        if (chunkSeconds_ < kChunkSeconds) return;
        r_.chunkRates.push_back(double(r_.verified - chunkVerified_) /
                                chunkSeconds_);
        chunkSeconds_ = 0;
        chunkVerified_ = r_.verified;
    }

    World& world_;
    ServeResult r_;
    std::uint32_t windowRounds_ = 0;
    std::uint64_t windowCycles0_ = 0;
    HostClock::time_point lastTick_;
    double chunkSeconds_ = 0;
    std::uint64_t chunkVerified_ = 0;
};

ServeResult
serveLoop(World& world, double seconds)
{
    LoopDriver driver(world);
    driver.warmup();
    while (!driver.done(seconds)) driver.step();
    return driver.result();
}

// --- statistics ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// --- reporting ----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Human table (name, value, unit, note) then the one-line JSON result. */
template <std::size_t N>
int
report(const MetricDef (&defs)[N], const Metrics& values,
       const std::map<std::string, std::string>& notes, const Outcome& out)
{
    for (const MetricDef& def : defs) {
        auto it = values.find(def.name);
        if (it == values.end()) {
            std::fprintf(stderr, "internal error: metric %s not computed\n",
                         def.name);
            return 1;
        }
        auto note = notes.find(def.name);
        std::printf("  %-32s %18.6f %-8s %s\n", def.name, it->second,
                    def.unit,
                    note == notes.end() ? "" : note->second.c_str());
    }
    std::printf("  %-32s %18.6f %-8s (attempted %llu, failed %llu)\n",
                "failed_frac",
                ratio(double(out.failed), double(out.attempted)), "fraction",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed);

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : defs) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", values.at(def.name));
        json += first ? "" : ", ";
        json += std::string("\"") + def.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + def.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}

/** Request accounting and the correctness gate for one serve loop:
 *  every attempted request must verify. */
void
accountFor(const ServeResult& r, const char* label, Outcome& out)
{
    out.attempted += r.attempted;
    out.failed += r.attempted - r.verified;
    if (r.verified != r.attempted) {
        std::fprintf(stderr,
                     "FAIL (%s): %llu attempted, %llu verified, %llu "
                     "verification failures, %llu typed errors, %llu "
                     "refused at submit, %llu lost\n",
                     label, (unsigned long long)r.attempted,
                     (unsigned long long)r.verified,
                     (unsigned long long)r.verifyFailures,
                     (unsigned long long)r.typedErrors,
                     (unsigned long long)r.refused,
                     (unsigned long long)r.lost);
        out.correct = false;
    }
}

// --- the two kinds of run -------------------------------------------------------

int
runUntraced(const WorkloadSpec& spec, const Inputs& in, double seconds)
{
    // Set up several worlds and keep the last: setup_s is their median.
    std::vector<double> setupS;
    std::unique_ptr<World> world;
    for (std::uint32_t i = 0; i < spec.setups; ++i) {
        world.reset();
        const auto t0 = HostClock::now();
        world = std::make_unique<World>(spec, in, false);
        if (!world->onboard(nullptr)) return 1;
        setupS.push_back(
            std::chrono::duration<double>(HostClock::now() - t0).count());
    }

    const ServeResult r = serveLoop(*world, seconds);
    const SimFigures sim = r.sim();

    Outcome out;
    accountFor(r, "untraced", out);

    Metrics m;
    m["setup_s"] = median(setupS);
    // Noise on a shared host only ever slows a chunk down, so the
    // fastest chunk is the steadiest estimate of the program's own speed.
    m["req_per_s"] = *std::max_element(r.chunkRates.begin(),
                                       r.chunkRates.end());
    m["sim_p50_cycles"] = double(sim.p50);
    m["sim_p99_cycles"] = double(sim.p99);
    m["sim_cycles_per_req"] = sim.cyclesPerReq;
    m["peak_rss_mb"] = r.windowPeakRssMb;

    std::map<std::string, std::string> notes;
    notes["setup_s"] = "host; median of " + std::to_string(setupS.size()) +
                       " set-ups";
    notes["req_per_s"] = "host; best of " +
                         std::to_string(r.chunkRates.size()) +
                         " chunks (median " +
                         std::to_string(median(r.chunkRates)) + "), " +
                         std::to_string(r.measuredVerified) + " requests";
    const std::string window = "sim; n=" + std::to_string(sim.samples) +
                               " requests in " +
                               std::to_string(spec.windowRounds) + " rounds";
    notes["sim_p50_cycles"] = window;
    notes["sim_p99_cycles"] = window;
    notes["sim_cycles_per_req"] = window;
    notes["peak_rss_mb"] = "host; whole process, through the window";
    return report(kEndToEnd, m, notes, out);
}

int
runTraced(const WorkloadSpec& spec, const Inputs& in, double seconds,
          const std::string& spansPath)
{
    Outcome out;

    // An untraced reference world and a traced one with the same seed,
    // stepped in alternation so host noise hits both alike.
    World plain(spec, in, false);
    if (!plain.onboard(nullptr)) return 1;
    World world(spec, in, true);
    SpanSink& sink = *world.sink();
    serve::Histogram onboardNs;
    if (!world.onboard(&onboardNs)) return 1;

    LoopDriver untraced(plain);
    LoopDriver traced(world);
    untraced.warmup();
    traced.warmup();
    while (!untraced.done(seconds / 2) || !traced.done(seconds / 2)) {
        untraced.step();
        traced.step();
    }
    const ServeResult& u = untraced.result();
    const ServeResult& r = traced.result();
    accountFor(u, "untraced", out);
    accountFor(r, "traced", out);
    const double untracedRate = ratio(double(u.measuredVerified),
                                      u.measuredSeconds);
    const SimFigures untracedSim = u.sim();
    const trace::StatsCounters& untracedCounters = u.windowEnd;

    if (!(r.sim() == untracedSim)) {
        std::fprintf(stderr,
                     "FAIL: traced sim figures differ from untraced "
                     "(p50 %llu vs %llu, p99 %llu vs %llu, "
                     "cycles/req %.6f vs %.6f)\n",
                     (unsigned long long)r.sim().p50,
                     (unsigned long long)untracedSim.p50,
                     (unsigned long long)r.sim().p99,
                     (unsigned long long)untracedSim.p99,
                     r.sim().cyclesPerReq, untracedSim.cyclesPerReq);
        out.correct = false;
    }
    for (const auto& [name, field] : kCounters) {
        const std::uint64_t a = untracedCounters.*field;
        const std::uint64_t b = r.windowEnd.*field;
        if (a != b) {
            std::fprintf(stderr,
                         "FAIL: TraceBus counter %s: traced %llu, "
                         "untraced %llu\n",
                         name, (unsigned long long)b, (unsigned long long)a);
            out.correct = false;
        }
    }
    if (sink.unbalanced() != 0 || sink.openSpans() != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu unbalanced span ends, %zu spans left open\n",
                     (unsigned long long)sink.unbalanced(), sink.openSpans());
        out.correct = false;
    }

    const unsigned kMeasured = unsigned(Phase::Window) | unsigned(Phase::Tail);
    const unsigned kWindow = unsigned(Phase::Window);
    const unsigned kSetup = unsigned(Phase::Setup);
    auto span = [&](const char* name, unsigned phases) {
        return sink.totals(name, phases);
    };
    auto perLeafUs = [&](const char* leaf) {
        const auto t = span(leaf, kSetup);
        return ratio(double(t.hostNs), double(t.count)) / 1e3;
    };

    const double wreq = double(r.windowVerified);
    const double mreq = double(r.measuredVerified);
    auto perWindowReq = [&](CounterField f) {
        return ratio(double(r.windowDelta(f)), wreq);
    };
    using SC = trace::StatsCounters;

    Metrics m;
    const auto onboard = span("serve.onboard", kSetup);
    m["serve.onboard_ms_p50"] = double(onboardNs.p50()) / 1e6;
    m["serve.onboard_ms_p99"] = double(onboardNs.p99()) / 1e6;
    m["serve.onboard_self_ms"] =
        ratio(double(onboard.hostNs - onboard.leafHostNs),
              double(onboard.count)) /
        1e6;
    m["sgx.eextend_us"] = perLeafUs("EEXTEND");
    m["sgx.einit_us"] = perLeafUs("EINIT");
    m["sgx.nereport_us"] = perLeafUs("NEREPORT");

    m["client.seal_ns"] = ratio(double(r.sealNs), double(r.submits));
    m["client.verify_ns"] = ratio(double(r.verifyNs), double(r.verifies));
    m["serve.submit_ns"] = ratio(double(r.submitNs), double(r.submits));
    const auto ecall = span("sdk.ecall", kMeasured);
    const auto necall = span("sdk.necall", kMeasured);
    m["sdk.ecall_self_ns_per_req"] =
        ratio(double(ecall.selfHostNs + necall.selfHostNs), mreq);
    m["sdk.ecall_sim_cycles_per_req"] =
        ratio(double(span("sdk.ecall", kWindow).simCycles), wreq);

    const auto ewb = span("EWB", kMeasured);
    const auto eldu = span("ELDU", kMeasured);
    const auto ewbWindow = span("EWB", kWindow);
    const auto elduWindow = span("ELDU", kWindow);
    const auto pump = span("serve.pump", kMeasured);
    m["sgx.ewb_us_per_page"] = ratio(double(ewb.hostNs), double(ewb.count)) / 1e3;
    m["sgx.eldu_us_per_page"] =
        ratio(double(eldu.hostNs), double(eldu.count)) / 1e3;
    m["sgx.paged_pages_per_req"] =
        ratio(double(ewbWindow.count + elduWindow.count), wreq);
    m["sgx.paging_sim_cycles_per_req"] =
        ratio(double(ewbWindow.simCycles + elduWindow.simCycles), wreq);
    m["sgx.paging_pump_frac"] =
        ratio(double(ewb.hostNs + eldu.hostNs), double(pump.hostNs));
    m["serve.evictions_per_kreq"] =
        1000.0 * perWindowReq(&SC::serveTenantEvictions);
    m["serve.reloads_per_kreq"] = 1000.0 * perWindowReq(&SC::serveTenantReloads);
    m["serve.watermark_misses"] =
        double(r.windowDelta(&SC::serveWatermarkMisses));
    m["os.victim_picks_per_evict"] =
        ratio(double(r.windowDelta(&SC::victimPicks)),
              double(r.windowDelta(&SC::serveTenantEvictions)));
    m["serve.pump_self_ns_per_req"] = ratio(double(pump.selfHostNs), mreq);
    m["serve.pump_ns_per_req"] = ratio(double(r.pumpNs), mreq);
    m["serve.req_per_batch"] =
        ratio(double(r.windowDelta(&SC::serveBatchedRequests)),
              double(r.windowDelta(&SC::serveBatches)));

    std::uint64_t transitionCount = 0;
    std::int64_t transitionHostNs = 0;
    std::uint64_t transitionCountWindow = 0;
    std::uint64_t transitionSim = 0;
    for (const char* leaf : {"EENTER", "EEXIT", "NEENTER", "NEEXIT"}) {
        const auto t = span(leaf, kMeasured);
        transitionCount += t.count;
        transitionHostNs += t.hostNs;
        const auto w = span(leaf, kWindow);
        transitionCountWindow += w.count;
        transitionSim += w.simCycles;
    }
    m["sgx.transitions_per_req"] =
        ratio(double(r.windowDelta(&SC::eenterCount) +
                     r.windowDelta(&SC::neenterCount)),
              wreq);
    m["sgx.transition_host_ns"] =
        ratio(double(transitionHostNs), double(transitionCount));
    m["sgx.transition_sim_cycles"] =
        ratio(double(transitionSim), double(transitionCountWindow));
    m["hw.tlb_misses_per_req"] = perWindowReq(&SC::tlbMisses);
    m["hw.nested_checks_per_req"] = perWindowReq(&SC::nestedChecks);
    m["hw.closure_hit_frac"] =
        ratio(double(r.windowDelta(&SC::closureCacheHits)),
              double(r.windowDelta(&SC::closureCacheHits) +
                     r.windowDelta(&SC::closureCacheMisses)));
    m["hw.mee_lines_per_req"] = perWindowReq(&SC::meeLines);
    const double tracedRate = ratio(double(r.measuredVerified),
                                    r.measuredSeconds);
    m["trace.overhead_frac"] = ratio(untracedRate, tracedRate) - 1.0;

    std::map<std::string, std::string> notes;
    const std::string setupNote =
        "host; " + std::to_string(onboardNs.count()) + " onboardings";
    for (const char* name :
         {"serve.onboard_ms_p50", "serve.onboard_ms_p99",
          "serve.onboard_self_ms", "sgx.eextend_us", "sgx.einit_us",
          "sgx.nereport_us"}) {
        notes[name] = setupNote;
    }
    const std::string windowNote =
        "model; " + std::to_string(r.windowVerified) + " requests";
    for (const char* name :
         {"sdk.ecall_sim_cycles_per_req", "sgx.paged_pages_per_req",
          "sgx.paging_sim_cycles_per_req", "serve.evictions_per_kreq",
          "serve.reloads_per_kreq", "serve.watermark_misses",
          "os.victim_picks_per_evict", "serve.req_per_batch",
          "sgx.transitions_per_req", "sgx.transition_sim_cycles",
          "hw.tlb_misses_per_req", "hw.nested_checks_per_req",
          "hw.closure_hit_frac", "hw.mee_lines_per_req"}) {
        notes[name] = windowNote;
    }
    const std::string hostNote =
        "host; " + std::to_string(r.measuredVerified) + " requests";
    for (const char* name :
         {"sdk.ecall_self_ns_per_req", "sgx.ewb_us_per_page",
          "sgx.eldu_us_per_page", "sgx.paging_pump_frac",
          "serve.pump_self_ns_per_req", "sgx.transition_host_ns"}) {
        notes[name] = hostNote;
    }
    for (const char* name : {"client.seal_ns", "client.verify_ns",
                             "serve.submit_ns", "serve.pump_ns_per_req"}) {
        notes[name] = "host; driver-side, " +
                      std::to_string(r.measuredVerified) + " requests";
    }
    notes["trace.overhead_frac"] =
        "host; untraced " + std::to_string(untracedRate) + " vs traced " +
        std::to_string(tracedRate) + " req/s";
    std::printf("  [traced: %zu spans]\n", sink.spans().size());

    if (!spansPath.empty() && !sink.writeCsv(spansPath)) {
        std::fprintf(stderr, "error: cannot write %s\n", spansPath.c_str());
        out.correct = false;
    }
    return report(kPerLayer, m, notes, out);
}

/**
 * Benchmark self-test: two short serial runs with one seed give
 * identical simulated figures and request streams, and another seed
 * changes the request stream.
 */
int
selfTest()
{
    const WorkloadSpec spec{"selftest", 6, 0, 1, 1, 2};
    auto once = [&](std::uint64_t seed) {
        World world(spec, inputsFor(seed), false);
        if (!world.onboard(nullptr)) std::exit(1);
        return serveLoop(world, 0.0);
    };
    const ServeResult a = once(7);
    const ServeResult b = once(7);
    const ServeResult c = once(8);
    bool ok = true;
    auto check = [&](bool cond, const char* what) {
        std::printf("  %-52s %s\n", what, cond ? "ok" : "FAIL");
        ok = ok && cond;
    };
    check(a.verified == a.attempted && a.attempted > 0,
          "every request verified");
    check(a.sim() == b.sim(), "same seed: identical sim figures");
    check(a.windowCycles == b.windowCycles,
          "same seed: identical window cycles");
    check(a.digest == b.digest, "same seed: identical request stream");
    check(a.digest != c.digest, "other seed: different request stream");
    return ok ? 0 : 1;
}

int
listMetrics()
{
    auto emit = [](const char* kind, const MetricDef& def) {
        std::printf("%s %s %s\n", kind, def.name, def.unit);
    };
    for (const MetricDef& def : kEndToEnd) emit("end_to_end", def);
    for (const MetricDef& def : kPerLayer) emit("per_layer", def);
    return 0;
}

const char* kUsage =
    "usage: nesgx_perfbench --workload warm|oversub|fleet\n"
    "                       --seed N --seconds S --trace 0|1\n"
    "                       [--spans PATH]\n"
    "       nesgx_perfbench --selftest | --list-metrics\n";

bool
parseU64(const char* text, std::uint64_t* out)
{
    if (text == nullptr || *text < '0' || *text > '9') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0') return false;
    *out = v;
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::string spansPath;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    std::uint64_t traced = 0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") return selfTest();
        if (flag == "--list-metrics") return listMetrics();
        if (flag == "--help" || flag == "-h") {
            std::printf("%s", kUsage);
            return 0;
        }
        const char* value = i + 1 < argc ? argv[++i] : nullptr;
        bool ok = value != nullptr;
        if (value == nullptr) {
            // reported below
        } else if (flag == "--workload") {
            workload = value;
        } else if (flag == "--spans") {
            spansPath = value;
        } else if (flag == "--seed") {
            ok = haveSeed = parseU64(value, &seed);
        } else if (flag == "--seconds") {
            ok = haveSeconds = parseU64(value, &seconds);
        } else if (flag == "--trace") {
            ok = haveTrace = parseU64(value, &traced) && traced <= 1;
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr, "error: bad flag %s\n%s", flag.c_str(),
                         kUsage);
            return 2;
        }
    }
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
        if (workload == w.name) spec = &w;
    }
    if (spec == nullptr || !haveSeed || !haveSeconds || !haveTrace) {
        std::fprintf(stderr, "error: --workload, --seed, --seconds and "
                             "--trace are required\n%s",
                     kUsage);
        return 2;
    }

    const Inputs in = inputsFor(seed);
    std::printf("nesgx perfbench: workload %s, seed %llu, %llu s, %s\n",
                spec->name, (unsigned long long)seed,
                (unsigned long long)seconds,
                traced ? "traced (per-layer)" : "untraced (end-to-end)");
    std::printf("  %u tenants, %s EPC, serial pump, batch %zu, tenant ids "
                "from %u, mix %s/%s/%s\n",
                spec->tenants,
                spec->epcPages
                    ? (std::to_string(spec->epcPages) + "-page").c_str()
                    : "default",
                kBatch, in.idBase, serve::workloadName(in.mix[0]),
                serve::workloadName(in.mix[1]),
                serve::workloadName(in.mix[2]));
    return traced ? runTraced(*spec, in, double(seconds), spansPath)
                  : runUntraced(*spec, in, double(seconds));
}
