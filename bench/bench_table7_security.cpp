/**
 * Reproduces paper Table VII: the attack scenarios from the case studies
 * and whether the nested-enclave protection holds. Each row actually
 * *runs* the attack against both layouts and reports the outcome.
 */
#include "apps/echo_app.h"
#include "apps/ml_app.h"
#include "bench_util.h"
#include "core/channel.h"
#include "os/ipc.h"

namespace nesgx::bench {
namespace {

const char* kSecret = "TABLE7-SECRET-0xFEEDFACE";

/** Attack 1 (§VI-A): OpenSSL vulnerability leaks app memory. */
bool
heartbleedLeaks(apps::Layout layout)
{
    BenchWorld world(defaultConfig());
    Bytes key(16, 0x71);
    auto server = apps::EchoServer::create(*world.urts, layout, key)
                      .orThrow("server");
    apps::EchoClient client(key);
    server->login(kSecret).orThrow("login");
    client.sendHeartbleed(server->network(), 2048);
    server->run(0).orThrow("run");
    auto leak = client.receive(server->network());
    return leak.isOk() &&
           apps::containsBytes(leak.value(), bytesOf(kSecret));
}

/** Attack 2 (§VI-B): the shared service reads privacy-sensitive data.
 *  Modelled as: can the service tier decrypt a foreign user's upload? */
bool
serviceReadsPrivateData(apps::MlService::MlLayout layout)
{
    BenchWorld world(defaultConfig());
    auto service =
        apps::MlService::create(*world.urts, layout, 2).orThrow("service");
    Rng rng(0x72);
    auto data = svm::generate(svm::shapeByName("phishing"), 20, rng);
    // Upload sealed under user 0's key, addressed to user 1's slot: only
    // a tier holding user 0's key could process it.
    Bytes sealed = apps::sealDataset(data, service->clientKey(0), 0);
    svm::TrainParams params;
    auto result = service->train(1, sealed, params);
    return result.isOk() && result.value().ok;
}

/** Attack 3 (§VI-C / §VII-B): OS drops inter-enclave messages. */
bool
osDropsIpcSilently()
{
    os::IpcService ipc;
    auto ch = ipc.createChannel();
    ipc.setDropPolicy([](os::ChannelId, const Bytes&) { return true; });
    ipc.send(ch, bytesOf("register-cert-callback"));
    return !ipc.receive(ch).has_value();  // message gone, no error raised
}

bool
osDropsOuterChannel(BenchWorld& world)
{
    const auto& key = core::defaultAuthorKey();
    sdk::EnclaveSpec outerSpec;
    outerSpec.name = "t7-outer";
    outerSpec.codePages = 4;
    outerSpec.heapPages = 8;
    outerSpec.allowedInners.push_back(
        sgx::PeerExpectation{std::nullopt, key.pub.signerMeasurement()});
    sdk::EnclaveSpec i1;
    i1.name = "t7-i1";
    i1.codePages = 4;
    i1.heapPages = 8;
    i1.expectedOuter =
        sgx::PeerExpectation{std::nullopt, key.pub.signerMeasurement()};
    sdk::EnclaveSpec i2 = i1;
    i2.name = "t7-i2";

    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(outerSpec)
                   .addInner(i1)
                   .addInner(i2)
                   .build()
                   .orThrow("build");
    auto channel =
        core::OuterChannel::create(*app.outer(), 1024).orThrow("channel");

    auto firstTcs = [&](sdk::LoadedEnclave* e) {
        const auto* rec = world.kernel.enclaveRecord(e->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& entry = world.machine.epcm().entry(
                world.machine.mem().epcPageIndex(pa));
            if (entry.type == sgx::PageType::Tcs) return pa;
        }
        return hw::Paddr(0);
    };

    // inner1 sends; there is no OS interposition point at all, so the
    // only question is whether inner2 receives it.
    world.machine.eenter(0, firstTcs(app.outer())).orThrow("e");
    world.machine.neenter(0, firstTcs(app.inner("t7-i1"))).orThrow("ne");
    {
        sdk::TrustedEnv env(*world.urts, *app.inner("t7-i1"), 0);
        channel.send(env, bytesOf("register-cert-callback")).orThrow("send");
    }
    world.machine.neexit(0).orThrow("nx");
    world.machine.eexit(0).orThrow("x");

    bool received = false;
    world.machine.eenter(0, firstTcs(app.outer())).orThrow("e");
    world.machine.neenter(0, firstTcs(app.inner("t7-i2"))).orThrow("ne");
    {
        sdk::TrustedEnv env(*world.urts, *app.inner("t7-i2"), 0);
        auto msg = channel.recv(env);
        received = msg.isOk();
    }
    world.machine.neexit(0).orThrow("nx");
    world.machine.eexit(0).orThrow("x");
    return !received;  // "dropped" only if it failed to arrive
}

void
printRow(const std::string& attack, const std::string& baseline,
         const std::string& nested, const std::string& protection)
{
    std::printf("  %-44s %-12s %-12s %s\n", attack.c_str(), baseline.c_str(),
                nested.c_str(), protection.c_str());
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags(argc, argv).finish();  // takes no flags

    header("Table VII: attack scenarios from the case studies "
           "(attacks are actually executed)");

    std::printf("\n  %-44s %-12s %-12s %s\n", "Attack", "monolithic",
                "nested", "Protection");

    bool monoLeak = heartbleedLeaks(nesgx::apps::Layout::Monolithic);
    bool nestedLeak = heartbleedLeaks(nesgx::apps::Layout::Nested);
    printRow("OpenSSL bug leaks main app memory (VI-A)",
             monoLeak ? "LEAKED" : "safe?",
             nestedLeak ? "LEAKED" : "PROTECTED",
             "isolation between enclaves");

    bool monoRead = serviceReadsPrivateData(
        nesgx::apps::MlService::MlLayout::Monolithic);
    bool nestedRead =
        serviceReadsPrivateData(nesgx::apps::MlService::MlLayout::Nested);
    printRow("Service reads privacy-sensitive data (VI-B)",
             monoRead ? "READ" : "PROTECTED",
             nestedRead ? "READ" : "PROTECTED",
             "isolation between enclaves");

    bool ipcDropped = osDropsIpcSilently();
    BenchWorld world(defaultConfig());
    bool channelDropped = osDropsOuterChannel(world);
    printRow("OS drops inter-enclave communication (VI-C)",
             ipcDropped ? "DROPPED" : "safe?",
             channelDropped ? "DROPPED" : "PROTECTED",
             "secure inter-enclave communication");

    bool allGood = monoLeak && !nestedLeak && !nestedRead && ipcDropped &&
                   !channelDropped;
    std::printf("\n  overall: %s\n",
                allGood ? "all nested-enclave protections hold"
                        : "MISMATCH vs paper claims");
    return allGood ? 0 : 1;
}
