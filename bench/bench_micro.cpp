/**
 * Wall-clock microbenchmarks (google-benchmark) of the substrate
 * primitives: crypto kernels, the access-validation path, and the data
 * structures behind the case studies. These measure the *host* cost of
 * the model itself — useful for keeping the simulator fast — as opposed
 * to the simulated-clock figures the table/figure binaries report.
 */
#include <benchmark/benchmark.h>

#include "crypto/gcm.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "db/btree.h"
#include "os/kernel.h"
#include "sdk/image.h"
#include "sdk/runtime.h"
#include "svm/kernel.h"

namespace {

using namespace nesgx;

void
BM_Sha256(benchmark::State& state)
{
    Bytes data(std::size_t(state.range(0)), 0xab);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_AesGcmSeal(benchmark::State& state)
{
    crypto::AesGcm gcm(Bytes(16, 0x11));
    Bytes iv(12, 0x22);
    Bytes data(std::size_t(state.range(0)), 0x33);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gcm.seal(iv, {}, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(4096);

/** The ELDU path: verify the tag, then decrypt. */
void
BM_AesGcmOpen(benchmark::State& state)
{
    crypto::AesGcm gcm(Bytes(16, 0x11));
    Bytes iv(12, 0x22);
    Bytes sealed = gcm.seal(iv, {}, Bytes(std::size_t(state.range(0)), 0x33));
    for (auto _ : state) {
        benchmark::DoNotOptimize(gcm.open(iv, {}, sealed));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(4096);

/**
 * A fresh key per message, as the registry's and the migration engine's
 * one-off seal/open do: key expansion and the GHASH table build are paid
 * every iteration.
 */
void
BM_AesGcmKeySetupSeal(benchmark::State& state)
{
    Bytes key(16, 0x11);
    Bytes iv(12, 0x22);
    Bytes data(std::size_t(state.range(0)), 0x33);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::AesGcm(key).seal(iv, {}, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmKeySetupSeal)->Arg(64);

void
BM_RsaVerify(benchmark::State& state)
{
    Rng rng(1);
    auto key = crypto::RsaKeyPair::generate(rng, 1024);
    Bytes msg = bytesOf("sigstruct body");
    Bytes sig = crypto::rsaSign(key, msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::rsaVerify(key.pub, msg, sig));
    }
}
BENCHMARK(BM_RsaVerify);

/** Shared scaffolding for the machine-path microbenchmarks. */
struct MachineBench {
    sgx::Machine machine;
    os::Kernel kernel;
    os::Pid pid;
    sdk::Urts urts;
    sdk::LoadedEnclave* enclave = nullptr;
    hw::Paddr tcs = 0;

    static sgx::Machine::Config configFor(bool taggedTlb)
    {
        sgx::Machine::Config config;
        config.dramBytes = 64ull << 20;
        config.prmBase = 32ull << 20;
        config.prmBytes = 16ull << 20;
        config.taggedTlb = taggedTlb;
        return config;
    }

    explicit MachineBench(bool taggedTlb)
        : machine(configFor(taggedTlb)),
          kernel(machine),
          pid(kernel.createProcess()),
          urts(kernel, pid)
    {
        kernel.schedule(0, pid);
        Rng rng(7);
        auto key = crypto::RsaKeyPair::generate(rng, 512);
        sdk::EnclaveSpec spec;
        spec.name = "bm";
        spec.codePages = 2;
        spec.heapPages = 8;
        spec.interface->addEcall(
            "empty", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                return Bytes{};
            });
        enclave = urts.load(sdk::buildImage(spec, key)).orThrow("load");
        const auto* rec = kernel.enclaveRecord(enclave->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            if (machine.epcm().entry(machine.mem().epcPageIndex(pa)).type ==
                sgx::PageType::Tcs) {
                tcs = pa;
                break;
            }
        }
    }

    /** Surfaces the fast-path counters in the benchmark report. */
    void exportCounters(benchmark::State& state) const
    {
        const auto& s = machine.stats();
        state.counters["tlbFlushes"] = double(s.tlbFlushes);
        state.counters["flushesAvoided"] = double(s.flushesAvoided);
        state.counters["closureCacheHits"] = double(s.closureCacheHits);
        state.counters["closureCacheMisses"] = double(s.closureCacheMisses);
        state.counters["taggedLookupRejects"] = double(s.taggedLookupRejects);
    }
};

/** The hot path of the whole model: validated translate + data copy.
 *  Arg: 0 = flush-on-transition TLB, 1 = context-tagged TLB. */
void
BM_ValidatedRead(benchmark::State& state)
{
    MachineBench bench(state.range(0) != 0);
    bench.machine.eenter(0, bench.tcs).orThrow("eenter");
    hw::Vaddr heap = bench.enclave->heap().alloc(4096);

    std::uint8_t buf[256];
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench.machine.read(0, heap, buf, sizeof(buf)));
    }
    state.SetBytesProcessed(state.iterations() * sizeof(buf));
    bench.exportCounters(state);
}
BENCHMARK(BM_ValidatedRead)->Arg(0)->Arg(1);

/** A multi-page streaming read: exercises the contiguous-range fast
 *  path on top of the tagged TLB. */
void
BM_StreamingRead(benchmark::State& state)
{
    MachineBench bench(state.range(0) != 0);
    bench.machine.eenter(0, bench.tcs).orThrow("eenter");
    hw::Vaddr heap = bench.enclave->heap().alloc(4 * hw::kPageSize);

    std::vector<std::uint8_t> buf(4 * hw::kPageSize);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench.machine.read(0, heap, buf.data(), buf.size()));
    }
    state.SetBytesProcessed(state.iterations() * std::int64_t(buf.size()));
    bench.exportCounters(state);
}
BENCHMARK(BM_StreamingRead)->Arg(0)->Arg(1);

/** Warm ecall round-trips: where the tagged TLB pays off — no flush on
 *  either edge, and the enclave's translations survive between calls. */
void
BM_EcallRoundTrip(benchmark::State& state)
{
    MachineBench bench(state.range(0) != 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bench.urts.ecall(bench.enclave, "empty", {}));
    }
    bench.exportCounters(state);
}
BENCHMARK(BM_EcallRoundTrip)->Arg(0)->Arg(1);

void
BM_BtreeInsertFind(benchmark::State& state)
{
    db::Btree tree;
    Rng rng(3);
    db::Key next = 0;
    for (int i = 0; i < 10000; ++i) tree.insert(next++, {"v"});
    for (auto _ : state) {
        tree.insert(next++, {"v"});
        benchmark::DoNotOptimize(
            tree.find(db::Key(rng.nextBelow(std::uint64_t(next)))));
    }
}
BENCHMARK(BM_BtreeInsertFind);

void
BM_RbfKernel(benchmark::State& state)
{
    Rng rng(4);
    auto data = svm::generate(svm::shapeByName("protein"), 2, rng);
    svm::KernelParams params;
    std::uint64_t flops = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(svm::kernel(params, data.samples[0],
                                             data.samples[1], flops));
    }
}
BENCHMARK(BM_RbfKernel);

}  // namespace

BENCHMARK_MAIN();
