/**
 * Reproduces paper Fig. 7: echo-server throughput with varying chunk
 * sizes (128 B .. 16 KB), normalized to the monolithic baseline, plus
 * the number of ecalls/ocalls per run (for nested, n_ecalls/n_ocalls are
 * included in the count, as in the paper).
 *
 * A fixed data volume is exchanged at each chunk size, so smaller chunks
 * mean more transitions — which is why the nested degradation is largest
 * there (paper: 2-6%).
 *
 * The paper rows run with the flush-on-transition TLB model. A second
 * section ablates the context-tagged TLB on the same workload: warm
 * round-trips keep their translations, so per-message cycles drop and
 * the flushes-avoided / closure-cache counters show where it came from.
 */
#include "apps/echo_app.h"
#include "bench_util.h"
#include "trace/chrome_sink.h"

namespace nesgx::bench {
namespace {

struct RunResult {
    double secs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t calls = 0;
    sgx::Machine::Stats stats;
};

RunResult
run(apps::Layout layout, std::uint64_t chunk, std::uint64_t messages,
    bool taggedTlb = false, const std::string& chromeTracePath = "")
{
    auto config = defaultConfig();
    config.taggedTlb = taggedTlb;
    BenchWorld world(config);
    Bytes key(16, 0x5c);
    auto server = apps::EchoServer::create(*world.urts, layout, key)
                      .orThrow("server");
    apps::EchoClient client(key);
    for (std::uint64_t i = 0; i < messages; ++i) {
        client.sendData(server->network(), chunk);
    }

    world.urts->resetStats();
    world.machine.resetStats();
    // Optional observability export: trace the measured section on the
    // simulated-clock timeline for chrome://tracing / Perfetto.
    trace::ChromeTraceSink chrome;
    if (!chromeTracePath.empty()) {
        world.machine.trace().subscribe(&chrome);
    }
    std::uint64_t before = world.machine.clock().cycles();
    server->run(messages).orThrow("run");
    std::uint64_t cycles = world.machine.clock().cycles() - before;
    if (!chromeTracePath.empty()) {
        world.machine.trace().unsubscribe(&chrome);
        if (chrome.writeFile(chromeTracePath)) {
            std::printf("  [chrome trace written to %s (%zu events)]\n",
                        chromeTracePath.c_str(), chrome.eventCount());
        } else {
            std::fprintf(stderr, "error: cannot write %s\n",
                         chromeTracePath.c_str());
            std::exit(1);
        }
    }

    while (client.receive(server->network()).isOk()) {
    }
    if (client.echoedOk() != messages) {
        std::fprintf(stderr, "echo mismatch: %llu/%llu\n",
                     (unsigned long long)client.echoedOk(),
                     (unsigned long long)messages);
        std::exit(1);
    }

    RunResult result;
    result.cycles = cycles;
    result.secs = double(cycles) / double(world.machine.clock().frequencyHz());
    const auto& s = world.urts->stats();
    result.calls = s.totalCalls();
    result.stats = world.machine.stats();
    return result;
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    // Total exchanged volume per configuration (paper exchanges a fixed
    // volume; 2 MiB default keeps the sweep quick).
    std::uint64_t volume = flags.u64("volume", 2ull << 20);
    // --chrome-trace PATH: export one nested run (1 KiB chunks) as a
    // chrome://tracing JSON on the simulated-clock timeline.
    const std::string chromeTrace = flags.str("chrome-trace", "");
    JsonReport json(flags);
    flags.finish();

    if (!chromeTrace.empty()) {
        std::uint64_t messages = std::max<std::uint64_t>(volume / 1024, 4);
        run(nesgx::apps::Layout::Nested, 1024, messages, true, chromeTrace);
    }

    header("Fig. 7: echo-server throughput vs chunk size "
           "(normalized to monolithic)");
    note("paper: nested within 2-6% of monolithic, worst at small chunks;");
    note("call counts fall as chunk size grows");

    std::printf("\n  %8s %12s %12s %10s %12s %12s\n", "chunk", "mono MB/s",
                "nested MB/s", "norm", "mono calls", "nested calls");

    for (std::uint64_t chunk : {128u, 256u, 512u, 1024u, 2048u, 4096u,
                                8192u, 16384u}) {
        std::uint64_t messages = std::max<std::uint64_t>(volume / chunk, 4);
        RunResult mono = run(nesgx::apps::Layout::Monolithic, chunk, messages);
        RunResult nested = run(nesgx::apps::Layout::Nested, chunk, messages);

        double bytes = double(chunk * messages);
        double monoMBs = bytes / mono.secs / 1e6;
        double nestedMBs = bytes / nested.secs / 1e6;
        std::printf("  %7lluB %12.1f %12.1f %10.3f %12llu %12llu\n",
                    (unsigned long long)chunk, monoMBs, nestedMBs,
                    nestedMBs / monoMBs, (unsigned long long)mono.calls,
                    (unsigned long long)nested.calls);
        json.set("mono_mbs_" + std::to_string(chunk), monoMBs);
        json.set("nested_mbs_" + std::to_string(chunk), nestedMBs);
    }

    header("Latency percentiles: per-message round trip (1 KiB chunks)");
    note("one message sent + served at a time, cycle delta per round trip;");
    note("nearest-rank percentiles over the full run (shared Histogram");
    note("helper from the serving layer)");
    std::printf("\n  %10s %10s %10s %10s %10s %10s\n", "layout", "msgs",
                "p50 cyc", "p95 cyc", "p99 cyc", "mean cyc");
    for (auto layout :
         {nesgx::apps::Layout::Monolithic, nesgx::apps::Layout::Nested}) {
        const bool nested = layout == nesgx::apps::Layout::Nested;
        std::uint64_t messages =
            std::max<std::uint64_t>(volume / (1024 * 8), 32);
        auto config = defaultConfig();
        BenchWorld world(config);
        nesgx::Bytes key(16, 0x5c);
        auto server =
            nesgx::apps::EchoServer::create(*world.urts, layout, key)
                .orThrow("server");
        nesgx::apps::EchoClient client(key);
        Histogram latency;
        for (std::uint64_t i = 0; i < messages; ++i) {
            client.sendData(server->network(), 1024);
            std::uint64_t before = world.machine.clock().cycles();
            server->run(1).orThrow("run");
            latency.add(world.machine.clock().cycles() - before);
            client.receive(server->network()).orThrow("receive");
        }
        const char* name = nested ? "nested" : "mono";
        std::printf("  %10s %10llu %10llu %10llu %10llu %10.0f\n", name,
                    (unsigned long long)messages,
                    (unsigned long long)latency.p50(),
                    (unsigned long long)latency.p95(),
                    (unsigned long long)latency.p99(), latency.mean());
        json.set(std::string(name) + "_echo_p50_cycles",
                 double(latency.p50()));
        json.set(std::string(name) + "_echo_p95_cycles",
                 double(latency.p95()));
        json.set(std::string(name) + "_echo_p99_cycles",
                 double(latency.p99()));
    }

    header("Ablation: context-tagged TLB on the nested echo workload");
    note("same fixed volume; cycles per message, flushed vs tagged TLB");
    note("closure hits are per-run; the flushed run re-validates after every");
    note("transition (exercising the cached closure), the tagged run mostly");
    note("skips the validation walk entirely");
    std::printf("\n  %8s %16s %16s %9s %14s %11s %11s %11s\n", "chunk",
                "flushed cyc/msg", "tagged cyc/msg", "speedup",
                "flushesAvoided", "closHit(f)", "closHit(t)", "tagRejects");
    for (std::uint64_t chunk : {128u, 1024u, 8192u}) {
        std::uint64_t messages = std::max<std::uint64_t>(volume / chunk, 4);
        RunResult flushed =
            run(nesgx::apps::Layout::Nested, chunk, messages, false);
        RunResult tagged =
            run(nesgx::apps::Layout::Nested, chunk, messages, true);
        double flushedPer = double(flushed.cycles) / double(messages);
        double taggedPer = double(tagged.cycles) / double(messages);
        std::printf(
            "  %7lluB %16.0f %16.0f %8.3fx %14llu %11llu %11llu %11llu\n",
            (unsigned long long)chunk, flushedPer, taggedPer,
            flushedPer / taggedPer,
            (unsigned long long)tagged.stats.flushesAvoided,
            (unsigned long long)flushed.stats.closureCacheHits,
            (unsigned long long)tagged.stats.closureCacheHits,
            (unsigned long long)tagged.stats.taggedLookupRejects);
        json.set("flushed_cyc_per_msg_" + std::to_string(chunk), flushedPer);
        json.set("tagged_cyc_per_msg_" + std::to_string(chunk), taggedPer);
        json.set("tagged_flushes_avoided_" + std::to_string(chunk),
                 double(tagged.stats.flushesAvoided));
        json.set("flushed_closure_hits_" + std::to_string(chunk),
                 double(flushed.stats.closureCacheHits));
        json.set("tagged_closure_hits_" + std::to_string(chunk),
                 double(tagged.stats.closureCacheHits));
    }

    json.write();
    return 0;
}
