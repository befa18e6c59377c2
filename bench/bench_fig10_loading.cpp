/**
 * Reproduces paper Fig. 10: time to load enclaves running an OpenSSL
 * server, and the total size of loaded enclaves in memory.
 *
 * Configurations, as in the paper:
 *   - baseline "500 SSL + 500 App": separate enclaves for the library
 *     and the application code (1000 loads);
 *   - baseline "500 SSL+App": 500 combined enclaves (today's practice);
 *   - nested: 500 App inner enclaves sharing {1,10,50,100,250,500}
 *     outer SSL enclaves (inners associated round-robin).
 *
 * The paper's footprints are SSL ~4 MB and App ~1 MB; the default run
 * scales page counts by 1/16 for single-core wall-clock (load *time* is
 * simulated-clock EADD/EEXTEND work either way and scales linearly);
 * memory is reported at the model scale.
 */
#include "bench_util.h"

namespace nesgx::bench {
namespace {

struct LoadResult {
    double secs = 0;
    double memoryMb = 0;
};

sgx::Machine::Config
bigConfig()
{
    sgx::Machine::Config config;
    config.dramBytes = 768ull << 20;
    config.prmBase = 384ull << 20;
    config.prmBytes = 320ull << 20;
    return config;
}

sdk::EnclaveSpec
sslSpec(std::uint64_t scale, const std::string& name)
{
    sdk::EnclaveSpec spec;
    spec.name = name;
    spec.codePages = 1024 / scale;  // 4 MB / scale
    spec.dataPages = 2;
    spec.heapPages = 8;
    spec.stackPages = 1;
    spec.tcsCount = 1;
    return spec;
}

sdk::EnclaveSpec
appSpec(std::uint64_t scale, const std::string& name)
{
    sdk::EnclaveSpec spec;
    spec.name = name;
    spec.codePages = 256 / scale;  // 1 MB / scale
    spec.dataPages = 2;
    spec.heapPages = 8;
    spec.stackPages = 1;
    spec.tcsCount = 1;
    return spec;
}

double
toSeconds(const BenchWorld& world, std::uint64_t cycles)
{
    return double(cycles) / double(world.machine.clock().frequencyHz());
}

/** Baseline: `count` separate SSL and App enclaves (or combined). */
LoadResult
runBaseline(std::uint64_t count, std::uint64_t scale, bool combined)
{
    BenchWorld world(bigConfig());
    std::uint64_t before = world.machine.clock().cycles();
    std::uint64_t pages = 0;

    for (std::uint64_t i = 0; i < count; ++i) {
        if (combined) {
            auto spec = sslSpec(scale, "sslapp");
            spec.codePages += appSpec(scale, "x").codePages;
            auto e = core::loadMonolithic(*world.urts, spec).orThrow("load");
            pages += e->image().spec.totalPages();
        } else {
            auto ssl = core::loadMonolithic(*world.urts,
                                            sslSpec(scale, "ssl"))
                           .orThrow("ssl");
            auto app = core::loadMonolithic(*world.urts,
                                            appSpec(scale, "app"))
                           .orThrow("app");
            pages += ssl->image().spec.totalPages() +
                     app->image().spec.totalPages();
        }
    }

    LoadResult result;
    result.secs = toSeconds(world, world.machine.clock().cycles() - before);
    result.memoryMb = double(pages) * hw::kPageSize / 1e6;
    return result;
}

/** Nested: `apps` inner enclaves over `outers` shared SSL enclaves. */
LoadResult
runNested(std::uint64_t apps, std::uint64_t outers, std::uint64_t scale)
{
    BenchWorld world(bigConfig());
    const auto& key = core::defaultAuthorKey();

    auto outerSpec = sslSpec(scale, "ssl-outer");
    outerSpec.allowedInners.push_back(
        sgx::PeerExpectation{std::nullopt, key.pub.signerMeasurement()});
    auto innerSpec = appSpec(scale, "app-inner");
    innerSpec.expectedOuter =
        sgx::PeerExpectation{std::nullopt, key.pub.signerMeasurement()};

    auto outerImage = sdk::buildImage(outerSpec, key);
    auto innerImage = sdk::buildImage(innerSpec, key);

    std::uint64_t before = world.machine.clock().cycles();
    std::uint64_t pages = 0;

    std::vector<sdk::LoadedEnclave*> outerEnclaves;
    for (std::uint64_t i = 0; i < outers; ++i) {
        auto e = world.urts->load(outerImage).orThrow("outer");
        outerEnclaves.push_back(e);
        pages += outerSpec.totalPages();
    }
    // Paper: "after we launch all the enclaves, we associate them at once".
    std::vector<sdk::LoadedEnclave*> inners;
    for (std::uint64_t i = 0; i < apps; ++i) {
        auto e = world.urts->load(innerImage).orThrow("inner");
        inners.push_back(e);
        pages += innerSpec.totalPages();
    }
    for (std::uint64_t i = 0; i < apps; ++i) {
        world.urts->associate(inners[i], outerEnclaves[i % outers])
            .orThrow("associate");
    }

    LoadResult result;
    result.secs = toSeconds(world, world.machine.clock().cycles() - before);
    result.memoryMb = double(pages) * hw::kPageSize / 1e6;
    return result;
}

void
printRow(const std::string& name, const LoadResult& r)
{
    std::printf("  %-34s %12.3f %12.1f\n", name.c_str(), r.secs, r.memoryMb);
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    std::uint64_t count = flags.u64("enclaves", 500);
    std::uint64_t scale = flags.u64("scale", 16);
    flags.finish();

    header("Fig. 10: time to load enclaves running an OpenSSL server");
    note("paper: nested shortens load time and shrinks footprint as more");
    note("inners share an outer; 500/500 nested ~= 500+500 baseline");
    note("App enclaves: " + std::to_string(count) + ", footprint scale 1/" +
         std::to_string(scale) + " (use --scale 1 for paper-size images)");

    std::printf("\n  %-34s %12s %12s\n", "configuration", "load time s",
                "memory MB");

    printRow(std::to_string(count) + " SSL + " + std::to_string(count) +
                 " App (baseline)",
             runBaseline(count, scale, false));
    printRow(std::to_string(count) + " SSL+App combined (baseline)",
             runBaseline(count, scale, true));

    for (std::uint64_t outers : {1u, 10u, 50u, 100u, 250u, 500u}) {
        if (outers > count) continue;
        printRow("nested: " + std::to_string(outers) + " SSL outer + " +
                     std::to_string(count) + " App inner",
                 runNested(count, outers, scale));
    }
    return 0;
}
