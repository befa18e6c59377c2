/**
 * Reproduces paper Fig. 11: throughput of intra-enclave communication
 * protected by the MEE (the nested outer-enclave channel) vs the
 * enclave-to-enclave channel through untrusted memory protected by
 * software AES-GCM (the monolithic baseline), across chunk sizes, for
 * communication footprints that fit in the LLC (8 MB) and that do not
 * (64 MB).
 *
 * Mechanism: the MEE channel pays no software crypto at all, and when
 * the cycled footprint fits in the 8 MB LLC it pays no MEE cost either
 * ("the data exist in plaintext within the CPU boundary") — the paper
 * reports up to 29.9x at small chunks. The GCM baseline pays per-message
 * setup plus per-byte software encryption regardless.
 */
#include <algorithm>

#include "bench_util.h"
#include "core/channel.h"

namespace nesgx::bench {
namespace {

sgx::Machine::Config
channelConfig()
{
    sgx::Machine::Config config;
    config.dramBytes = 512ull << 20;
    config.prmBase = 256ull << 20;
    config.prmBytes = 160ull << 20;
    // 8 MB LLC (i7-7700) plus a small metadata margin so a ring of
    // exactly the nominal footprint stays resident (the fully-associative
    // LRU model is otherwise pathological at exact capacity).
    config.llcBytes = (8ull << 20) + (256ull << 10);
    return config;
}

struct ChannelWorld {
    BenchWorld world;
    sdk::LoadedEnclave* outer;
    sdk::LoadedEnclave* inner;

    explicit ChannelWorld(std::uint64_t footprint)
        : world(channelConfig()), outer(nullptr), inner(nullptr)
    {
        const auto& key = core::defaultAuthorKey();
        sdk::EnclaveSpec outerSpec;
        outerSpec.name = "ch-outer";
        outerSpec.codePages = 4;
        outerSpec.heapPages = footprint / hw::kPageSize + 8;
        outerSpec.allowedInners.push_back(
            sgx::PeerExpectation{std::nullopt, key.pub.signerMeasurement()});

        sdk::EnclaveSpec innerSpec;
        innerSpec.name = "ch-inner";
        innerSpec.codePages = 4;
        innerSpec.heapPages = 8;
        innerSpec.expectedOuter =
            sgx::PeerExpectation{std::nullopt, key.pub.signerMeasurement()};

        auto app = core::NestedAppBuilder(world.urts.operator*())
                       .outer(outerSpec)
                       .addInner(innerSpec)
                       .build()
                       .orThrow("build");
        outer = app.outer();
        inner = app.inner("ch-inner");
    }

    /** Runs fn with an inner-enclave env (entered via the outer). */
    template <typename Fn>
    void asInner(Fn&& fn)
    {
        auto& machine = world.machine;
        hw::Paddr outerTcs = firstTcs(outer);
        hw::Paddr innerTcs = firstTcs(inner);
        machine.eenter(0, outerTcs).orThrow("eenter");
        machine.neenter(0, innerTcs).orThrow("neenter");
        {
            sdk::TrustedEnv env(*world.urts, *inner, 0);
            fn(env);
        }
        machine.neexit(0).orThrow("neexit");
        machine.eexit(0).orThrow("eexit");
    }

    hw::Paddr firstTcs(sdk::LoadedEnclave* enclave)
    {
        const auto* rec = world.kernel.enclaveRecord(enclave->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& e = world.machine.epcm().entry(
                world.machine.mem().epcPageIndex(pa));
            if (e.type == sgx::PageType::Tcs) return pa;
        }
        return 0;
    }
};

/** Streams `volume` bytes in `chunk`-sized messages; returns GB/s. */
double
runMee(std::uint64_t footprint, std::uint64_t chunk, std::uint64_t volume)
{
    ChannelWorld cw(footprint);
    auto channel = core::OuterChannel::create(*cw.outer, footprint)
                       .orThrow("channel");
    Bytes msg(chunk, 0xa5);
    std::uint64_t messages =
        std::clamp<std::uint64_t>(volume / chunk, 8, 4096);

    // Warm: one full cycle of the ring (with large messages, so warming
    // stays cheap at small chunk sizes) to reach steady-state residency.
    Bytes warmMsg(std::min<std::uint64_t>(65536, footprint / 4), 0x11);
    std::uint64_t warm = footprint / (warmMsg.size() + 8) + 2;
    cw.asInner([&](sdk::TrustedEnv& env) {
        for (std::uint64_t i = 0; i < warm; ++i) {
            channel.send(env, warmMsg).orThrow("send");
            channel.recv(env).orThrow("recv");
        }
    });

    auto& clock = cw.world.machine.clock();
    std::uint64_t before = clock.cycles();
    cw.asInner([&](sdk::TrustedEnv& env) {
        for (std::uint64_t i = 0; i < messages; ++i) {
            channel.send(env, msg).orThrow("send");
            channel.recv(env).orThrow("recv");
        }
    });
    double secs =
        double(clock.cycles() - before) / double(clock.frequencyHz());
    return double(messages * chunk) / secs / 1e9;
}

double
runGcm(std::uint64_t footprint, std::uint64_t chunk, std::uint64_t volume)
{
    ChannelWorld cw(footprint);
    Bytes key(16, 0x3d);
    auto channel =
        core::GcmChannel::create(*cw.world.urts, footprint, key)
            .orThrow("channel");
    Bytes msg(chunk, 0x5a);
    std::uint64_t messages =
        std::clamp<std::uint64_t>(volume / chunk, 8, 4096);

    Bytes warmMsg(std::min<std::uint64_t>(65536, footprint / 4), 0x11);
    std::uint64_t warm = footprint / (warmMsg.size() + 8) + 2;
    cw.asInner([&](sdk::TrustedEnv& env) {
        for (std::uint64_t i = 0; i < warm; ++i) {
            channel.send(env, warmMsg).orThrow("send");
            channel.recv(env).orThrow("recv");
        }
    });

    auto& clock = cw.world.machine.clock();
    std::uint64_t before = clock.cycles();
    cw.asInner([&](sdk::TrustedEnv& env) {
        for (std::uint64_t i = 0; i < messages; ++i) {
            channel.send(env, msg).orThrow("send");
            channel.recv(env).orThrow("recv");
        }
    });
    double secs =
        double(clock.cycles() - before) / double(clock.frequencyHz());
    return double(messages * chunk) / secs / 1e9;
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    std::uint64_t volume = flags.u64("volume", 8ull << 20);
    flags.finish();

    header("Fig. 11: intra-enclave channel (MEE) vs AES-GCM over "
           "untrusted memory");
    note("paper: MEE up to 29.9x faster at small chunks when the footprint");
    note("fits the LLC (8 MB); gap narrows as chunk size amortizes GCM");

    for (std::uint64_t footprint : {8ull << 20, 64ull << 20}) {
        std::printf("\n  footprint %llu MB:\n",
                    (unsigned long long)(footprint >> 20));
        std::printf("  %8s %12s %12s %10s\n", "chunk", "MEE GB/s",
                    "GCM GB/s", "MEE/GCM");
        for (std::uint64_t chunk :
             {64ull, 256ull, 1024ull, 4096ull, 16384ull, 65536ull,
              262144ull, 1048576ull}) {
            if (chunk + 8 > footprint / 2) continue;
            double mee = runMee(footprint, chunk, volume);
            double gcm = runGcm(footprint, chunk, volume);
            std::printf("  %7lluB %12.3f %12.3f %9.1fx\n",
                        (unsigned long long)chunk, mee, gcm, mee / gcm);
        }
    }
    return 0;
}
