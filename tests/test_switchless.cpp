/**
 * Switchless (exit-less) call layer tests: DescRing wraparound and
 * backpressure semantics, poller idle fallback with re-arm, end-to-end
 * equivalence with classic dispatch (zero transitions post-arming), and
 * the typed Err::Deadline completions for shed batches — all in both
 * TLB-tag modes.
 */
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "fault/injector.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/service.h"
#include "switchless/engine.h"
#include "switchless/ring.h"

namespace nesgx::test {
namespace {

using serve::TenantId;
using serve::Workload;

class SwitchlessTest : public ::testing::TestWithParam<bool> {
  protected:
    static sgx::Machine::Config machineConfig(std::uint32_t cores)
    {
        auto config = World::smallConfig();
        config.coreCount = cores;
        config.taggedTlb = GetParam();
        return config;
    }

    static serve::TenantService::Config serviceConfig()
    {
        serve::TenantService::Config sc;
        sc.registry.tenantsPerOuter = 3;
        sc.registry.outerCodePages = 12;
        sc.registry.outerHeapPages = 24;
        sc.registry.innerCodePages = 4;
        sc.registry.innerHeapPages = 8;
        sc.pool.batchSize = 4;
        return sc;
    }
};

TEST_P(SwitchlessTest, RingWrapsAroundWithMonotonicSequences)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());

    // Three full push/pop laps of a capacity-4 ring: 12 descriptors
    // through 4 slots. Sequence numbers must stay strictly monotonic
    // across every wraparound and FIFO order must hold exactly.
    std::uint64_t expectSeq = 0;
    for (std::uint64_t lap = 0; lap < 3; ++lap) {
        for (std::uint64_t i = 0; i < 4; ++i) {
            switchless::Desc d;
            d.id = lap * 4 + i + 1;
            d.va = base;
            d.len = 64 + i;
            ASSERT_TRUE(ring.tryPush(world.machine, 0, d).isOk());
        }
        for (std::uint64_t i = 0; i < 4; ++i) {
            auto popped = ring.tryPop(world.machine, 1);
            ASSERT_TRUE(popped.isOk());
            EXPECT_EQ(popped.value().id, lap * 4 + i + 1);
            EXPECT_EQ(popped.value().len, 64 + i);
            EXPECT_EQ(popped.value().seq, expectSeq);
            ++expectSeq;
        }
    }
    EXPECT_EQ(ring.tryPop(world.machine, 1).code(), Err::NotFound);

    const auto& counters = world.machine.trace().counters();
    EXPECT_EQ(counters.switchlessPosts, 12u);
    EXPECT_EQ(counters.switchlessDrains, 12u);
    EXPECT_EQ(counters.switchlessFallbacks, 0u);
}

TEST_P(SwitchlessTest, FullRingRefusesWithBackpressureNotStall)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());

    for (std::uint64_t i = 0; i < 4; ++i) {
        switchless::Desc d;
        d.id = i + 1;
        ASSERT_TRUE(ring.tryPush(world.machine, 0, d).isOk());
    }
    // The 5th push must refuse typed — not stall, not overwrite.
    switchless::Desc overflow;
    overflow.id = 99;
    EXPECT_EQ(ring.tryPush(world.machine, 0, overflow).code(),
              Err::Backpressure);
    // A refused push publishes nothing.
    EXPECT_EQ(world.machine.trace().counters().switchlessPosts, 4u);

    // The ring's contents survived the refusal intact and in order.
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto popped = ring.tryPop(world.machine, 1);
        ASSERT_TRUE(popped.isOk());
        EXPECT_EQ(popped.value().id, i + 1);
    }
    // One slot freed: the producer can proceed immediately.
    overflow.id = 100;
    EXPECT_TRUE(ring.tryPush(world.machine, 0, overflow).isOk());
    auto popped = ring.tryPop(world.machine, 1);
    ASSERT_TRUE(popped.isOk());
    EXPECT_EQ(popped.value().id, 100u);
}

TEST_P(SwitchlessTest, AbandonPublishesOneFallbackForOutstandingEntries)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());

    for (std::uint64_t i = 0; i < 3; ++i) {
        switchless::Desc d;
        d.id = i + 1;
        ASSERT_TRUE(ring.tryPush(world.machine, 0, d).isOk());
    }
    auto dropped = ring.abandon(world.machine, 0);
    ASSERT_TRUE(dropped.isOk());
    EXPECT_EQ(dropped.value(), 3u);
    EXPECT_EQ(world.machine.trace().counters().switchlessFallbacks, 1u);
    EXPECT_EQ(ring.tryPop(world.machine, 0).code(), Err::NotFound);

    // An empty abandon is silent — no fallback noise.
    auto empty = ring.abandon(world.machine, 0);
    ASSERT_TRUE(empty.isOk());
    EXPECT_EQ(empty.value(), 0u);
    EXPECT_EQ(world.machine.trace().counters().switchlessFallbacks, 1u);
}

TEST_P(SwitchlessTest, ServesExitlesslyAfterArmingAndMatchesClassic)
{
    // Classic reference run: same tenant, same request stream.
    std::vector<std::uint64_t> classicLens;
    {
        World world(machineConfig(4));
        serve::TenantService service(*world.urts, serviceConfig());
        ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
        serve::TenantClient client(0, Workload::Echo);
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
        }
        service.pump();
        for (serve::Completion& done : service.drain()) {
            ASSERT_TRUE(done.ok);
            ASSERT_TRUE(client.onResponse(done.sealedResponse));
            classicLens.push_back(done.sealedResponse.size());
        }
        ASSERT_EQ(classicLens.size(), 8u);
        EXPECT_EQ(client.failures(), 0u);
    }

    // Switchless run: pollers park up front; after the snapshot the
    // whole request path must be transition-free, and the sealed
    // responses must verify exactly like the classic ones.
    World world(machineConfig(8));
    auto sc = serviceConfig();
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 2;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    EXPECT_EQ(service.armSwitchless(), 1u);

    const auto& counters = world.machine.trace().counters();
    const std::uint64_t transitionsBase =
        counters.eenterCount + counters.neenterCount;

    serve::TenantClient client(0, Workload::Echo);
    std::vector<std::uint64_t> switchlessLens;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(done.ok) << done.status.name();
        ASSERT_TRUE(client.onResponse(done.sealedResponse));
        switchlessLens.push_back(done.sealedResponse.size());
    }
    ASSERT_EQ(switchlessLens.size(), 8u);
    EXPECT_EQ(client.failures(), 0u);
    EXPECT_EQ(switchlessLens, classicLens);

    EXPECT_EQ(counters.eenterCount + counters.neenterCount, transitionsBase)
        << "the exit-less path leaked enclave transitions";
    EXPECT_GT(counters.switchlessPosts, 0u);
    EXPECT_EQ(counters.switchlessPosts, counters.switchlessDrains);
    ASSERT_NE(service.switchlessEngine(), nullptr);
    EXPECT_EQ(service.switchlessEngine()->engineStats().calls, 2u);
}

TEST_P(SwitchlessTest, IdlePollerFallsBackThenRearmsOnNextCall)
{
    World world(machineConfig(8));
    auto sc = serviceConfig();
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 2;
    sc.switchless.idleParkCycles = 20000;  // tiny, so the test can idle past it
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    ASSERT_EQ(service.armSwitchless(), 1u);

    serve::TenantClient client(0, Workload::Echo);
    auto serveOne = [&]() {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
        service.pump();
        auto done = service.drain();
        ASSERT_EQ(done.size(), 1u);
        ASSERT_TRUE(done[0].ok) << done[0].status.name();
        ASSERT_TRUE(client.onResponse(done[0].sealedResponse));
    };

    serveOne();
    const auto* engine = service.switchlessEngine();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->engineStats().idleFallbacks, 0u);

    // Idle long past the park budget: the next call must detect the
    // gap, fall back (abandon + unpark), re-arm, and still serve.
    world.machine.charge(sc.switchless.idleParkCycles * 3);
    serveOne();
    // (No SwitchlessFallback event here: the rings were fully drained,
    // so the abandon had nothing outstanding to hand back — the idle
    // episode shows up in the engine stats, not the trace.)
    EXPECT_GE(engine->engineStats().idleFallbacks, 1u);

    // The re-armed channel keeps serving exit-lessly afterwards.
    const auto& counters = world.machine.trace().counters();
    const std::uint64_t transitionsBase =
        counters.eenterCount + counters.neenterCount;
    serveOne();
    EXPECT_EQ(counters.eenterCount + counters.neenterCount, transitionsBase);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(SwitchlessTest, OcallRelayServesInEnclaveOcallWithZeroTransitions)
{
    // The engine registered as the SDK's OcallRelay serves an in-enclave
    // ocall over shared-memory rings: the classic path would pay one
    // EEXIT + one EENTER per ocall; the relayed path must pay none.
    World world(machineConfig(4));
    switchless::Config cfg;
    cfg.enabled = true;
    switchless::SwitchlessEngine engine(*world.urts, cfg);
    world.urts->setOcallRelay(&engine);

    world.urts->registerOcall(
        "host_mark", [](ByteView arg) -> Result<Bytes> {
            Bytes out(arg.begin(), arg.end());
            out.push_back(0x7f);  // proof the host function actually ran
            return out;
        });
    auto spec = tinySpec("oc-relay");
    spec.interface->addEcall(
        "do_ocall", [](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            return env.ocall("host_mark", arg);
        });
    auto e =
        world.urts->load(sdk::buildImage(spec, authorKey())).orThrow("load");

    const auto& counters = world.machine.trace().counters();
    // First call arms the per-root ocall rings lazily.
    Bytes expect = bytesOf("abc");
    expect.push_back(0x7f);
    EXPECT_EQ(world.urts->ecall(e, "do_ocall", bytesOf("abc")).orThrow("warm"),
              expect);
    EXPECT_EQ(engine.engineStats().ocallRelays, 1u);

    // Steady state: the ecall itself is exactly one EENTER/EEXIT pair —
    // the ocall inside it must not add a transition in either direction.
    const std::uint64_t eenters = counters.eenterCount;
    const std::uint64_t eexits = counters.eexitCount;
    EXPECT_EQ(world.urts->ecall(e, "do_ocall", bytesOf("abc")).orThrow("call"),
              expect);
    EXPECT_EQ(counters.eenterCount, eenters + 1);
    EXPECT_EQ(counters.eexitCount, eexits + 1);
    EXPECT_EQ(engine.engineStats().ocallRelays, 2u);

    world.urts->setOcallRelay(nullptr);
}

TEST_P(SwitchlessTest, ExpiredBatchCompletesTypedDeadlineNeverSilent)
{
    World world(machineConfig(4));
    auto sc = serviceConfig();
    sc.admission.deadlineCycles = 5000;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    // Outlive the deadline before the pool ever runs: the whole batch
    // expires, and step() must convert every entry into a typed
    // Err::Deadline completion instead of returning silently.
    world.machine.charge(10000);
    service.pump();
    auto done = service.drain();
    ASSERT_EQ(done.size(), 4u);
    for (const serve::Completion& c : done) {
        EXPECT_FALSE(c.ok);
        EXPECT_EQ(c.status.code(), Err::Deadline);
        EXPECT_TRUE(c.sealedResponse.empty());
    }
    EXPECT_EQ(service.admission().shed(), 4u);
    EXPECT_EQ(world.machine.trace().counters().serveSheds, 4u);
}

INSTANTIATE_TEST_SUITE_P(TlbModes, SwitchlessTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "TaggedTlb" : "FlushedTlb";
                         });

// --- relay hops die with their riders ------------------------------------

/**
 * Arms switchless for one tenant on `cores` cores, then rebuilds the
 * tenant's whole gateway subtree and serves one request on the rebuilt
 * instance. Returns the rebuild status; `armed` gets the channel count.
 */
Status
rebuildArmedSubtree(serve::Topology topology, std::uint32_t cores,
                    std::size_t& armed, std::uint64_t& verified)
{
    auto config = World::smallConfig();
    config.coreCount = cores;
    World world(config);
    serve::TenantService::Config sc;
    sc.registry.tenantsPerOuter = 3;
    sc.registry.outerCodePages = 12;
    sc.registry.outerHeapPages = 24;
    sc.registry.innerCodePages = 4;
    sc.registry.innerHeapPages = 8;
    sc.registry.topology = topology;
    sc.registry.cvmCodePages = 8;
    sc.registry.cvmHeapPages = 24;
    sc.registry.cvmTcs = 8;
    sc.pool.batchSize = 4;
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 2;
    serve::TenantService service(*world.urts, sc);
    EXPECT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    armed = service.armSwitchless();

    const Status st = service.pool().rebuildSubtree(0);
    serve::TenantClient client(0, Workload::Echo);
    EXPECT_TRUE(service.submit(0, client.nextRequest()).isOk());
    service.pump();
    verified = 0;
    for (serve::Completion& done : service.drain()) {
        if (done.ok && client.onResponse(done.sealedResponse)) ++verified;
    }
    return st;
}

TEST(SwitchlessRelease, SubtreeRebuildUnparksTheFlatGatewayPoller)
{
    // The gateway is the chain root: its poller stays parked across
    // rider churn, so the subtree rebuild must release it explicitly.
    std::size_t armed = 0;
    std::uint64_t verified = 0;
    const Status st =
        rebuildArmedSubtree(serve::Topology::Flat, 5, armed, verified);
    EXPECT_EQ(armed, 1u);
    EXPECT_TRUE(st.isOk()) << st.name();
    EXPECT_EQ(verified, 1u);
}

TEST(SwitchlessRelease, FailedArmReleasesTheRiderlessMidHop)
{
    // Four cores leave two for pollers: the CVM root and the gateway
    // park, the leaf finds no core, and the arm fails. The gateway hop
    // it armed has no rider and must not stay parked in the gateway.
    std::size_t armed = 0;
    std::uint64_t verified = 0;
    const Status st =
        rebuildArmedSubtree(serve::Topology::Cvm, 4, armed, verified);
    EXPECT_EQ(armed, 0u);
    EXPECT_TRUE(st.isOk()) << st.name();
    EXPECT_EQ(verified, 1u);
}

TEST(SwitchlessRelease, CvmSubtreeRebuildWithEveryHopArmed)
{
    std::size_t armed = 0;
    std::uint64_t verified = 0;
    const Status st =
        rebuildArmedSubtree(serve::Topology::Cvm, 5, armed, verified);
    EXPECT_EQ(armed, 1u);
    EXPECT_TRUE(st.isOk()) << st.name();
    EXPECT_EQ(verified, 1u);
}

// --- pinned switchless stream --------------------------------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/** FNV-1a over the eight little-endian bytes of `value`. */
std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Folds every trace event's (kind, core, arg0, arg1) into a digest. */
struct StreamDigestSink : trace::TraceSink {
    std::uint64_t events = 0;
    std::uint64_t digest = kFnvOffset;
    void onEvent(const trace::TraceEvent& event) override
    {
        ++events;
        digest = fnv1a(digest, std::uint64_t(event.kind));
        digest = fnv1a(digest, event.core);
        digest = fnv1a(fnv1a(digest, event.arg0), event.arg1);
    }
};

/** What one scripted switchless run leaves behind. */
struct StreamPin {
    std::uint64_t events, digest, cycles, verified;
    std::uint64_t calls, armings, idleFallbacks, ringStalls, pollerWedges;
    std::uint64_t eenters, neenters, eexits, neexits, eresumes;

    bool operator==(const StreamPin& o) const
    {
        return events == o.events && digest == o.digest &&
               cycles == o.cycles && verified == o.verified &&
               calls == o.calls && armings == o.armings &&
               idleFallbacks == o.idleFallbacks &&
               ringStalls == o.ringStalls &&
               pollerWedges == o.pollerWedges && eenters == o.eenters &&
               neenters == o.neenters && eexits == o.eexits &&
               neexits == o.neexits && eresumes == o.eresumes;
    }
};

std::ostream&
operator<<(std::ostream& os, const StreamPin& p)
{
    return os << "{" << p.events << "u, " << p.digest << "ull, " << p.cycles
              << "u, " << p.verified << "u, " << p.calls << "u, "
              << p.armings << "u, " << p.idleFallbacks << "u, "
              << p.ringStalls << "u, " << p.pollerWedges << "u, "
              << p.eenters << "u, " << p.neenters << "u, " << p.eexits
              << "u, " << p.neexits << "u, " << p.eresumes << "u}";
}

/**
 * Two tenants on one gateway with switchless armed, driven through every
 * engine lifecycle step: serve, idle past the park budget and serve again
 * (leaf and root fall back and re-park), then a ring stall, a poller
 * wedge under an interrupt storm, and a kick (disarm) before serving
 * once more. The whole trace stream, the clock, the engine stats and the
 * transition counts are folded into one pin.
 */
StreamPin
scriptedSwitchlessRun(serve::Topology topology)
{
    auto config = World::smallConfig();
    config.coreCount = 8;
    World world(config);
    StreamDigestSink sink;
    world.machine.trace().subscribe(&sink);

    serve::TenantService::Config sc;
    sc.registry.tenantsPerOuter = 3;
    sc.registry.outerCodePages = 12;
    sc.registry.outerHeapPages = 24;
    sc.registry.innerCodePages = 4;
    sc.registry.innerHeapPages = 8;
    sc.registry.topology = topology;
    sc.registry.cvmCodePages = 8;
    sc.registry.cvmHeapPages = 24;
    sc.registry.cvmTcs = 8;
    sc.pool.batchSize = 4;
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 2;
    sc.switchless.idleParkCycles = 20000;
    serve::TenantService service(*world.urts, sc);

    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 2; ++t) {
        EXPECT_TRUE(service.addTenant(t, Workload::Echo).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, Workload::Echo));
    }
    EXPECT_EQ(service.armSwitchless(), 2u);

    std::uint64_t verified = 0;
    auto serveRound = [&](int perTenant) {
        for (int i = 0; i < perTenant; ++i) {
            for (TenantId t = 0; t < 2; ++t) {
                EXPECT_TRUE(
                    service.submit(t, clients[t]->nextRequest()).isOk());
            }
        }
        service.pump();
        for (serve::Completion& done : service.drain()) {
            serve::TenantClient& client = *clients[done.tenant];
            if (done.ok && client.onResponse(done.sealedResponse)) {
                ++verified;
            } else if (done.tenantRebuilt) {
                client.onTenantRebuilt();
            } else if (!done.ok) {
                client.onDropped();
            }
        }
    };

    serveRound(4);
    world.machine.charge(sc.switchless.idleParkCycles * 3);
    serveRound(2);

    auto plan = fault::FaultPlan::parse(
        "ring-stall@n=1; poller-wedge@n=3; aex-storm@every=7");
    EXPECT_TRUE(plan.isOk());
    fault::FaultInjector injector(plan.value(), 1);
    world.machine.setFaultInjector(&injector);
    serveRound(2);
    world.machine.setFaultInjector(nullptr);
    switchless::SwitchlessEngine* engine = service.switchlessEngine();
    for (TenantId t = 0; t < 2; ++t) {
        if (engine->channelProgress(t).wedged) engine->disarm(t);
    }
    serveRound(2);
    world.machine.trace().unsubscribe(&sink);

    const trace::StatsCounters& c = world.machine.trace().counters();
    const switchless::EngineStats& s = engine->engineStats();
    return {sink.events,     sink.digest,      world.machine.clock().cycles(),
            verified,        s.calls,          s.armings,
            s.idleFallbacks, s.ringStalls,     s.pollerWedges,
            c.eenterCount,   c.neenterCount,   c.eexitCount,
            c.neexitCount,   c.eresumeCount};
}

TEST(SwitchlessStream, FlatLifecycleStreamIsPinned)
{
    const StreamPin pin = scriptedSwitchlessRun(serve::Topology::Flat);
    EXPECT_GE(pin.idleFallbacks, 2u);
    EXPECT_EQ(pin.ringStalls, 1u);
    EXPECT_EQ(pin.pollerWedges, 1u);
    EXPECT_EQ(pin, (StreamPin{1902u, 2214891058053116437ull, 1176563u, 18u,
                              7u, 11u, 6u, 1u, 1u, 11u, 7u, 8u, 5u, 9u}));
}

TEST(SwitchlessStream, CvmLifecycleStreamIsPinned)
{
    const StreamPin pin = scriptedSwitchlessRun(serve::Topology::Cvm);
    EXPECT_GE(pin.idleFallbacks, 2u);
    EXPECT_EQ(pin.ringStalls, 1u);
    EXPECT_EQ(pin.pollerWedges, 1u);
    EXPECT_EQ(pin, (StreamPin{2842u, 8515621334854959202ull, 1813214u, 18u,
                              7u, 14u, 8u, 1u, 1u, 14u, 17u, 10u, 12u, 13u}));
}

}  // namespace
}  // namespace nesgx::test
