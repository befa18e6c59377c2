/**
 * nesgx_check — the orderliness checker CLI.
 *
 * Drives seeded random ENCLS/ENCLU interleavings through the model and
 * cross-checks the §VII-A invariants after every step (see oracle.h).
 * On a violation the failing sequence is shrunk to a minimal reproducer,
 * printed, and optionally written to a file for CI artifact upload.
 *
 *   nesgx_check --seeds 64 --steps 300 --tagged both --repro-out repro.txt
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "check/sequence.h"
#include "support/flags.h"

namespace {

const char* kUsage =
    "usage: nesgx_check [--seeds N] [--steps M] [--seed S]\n"
    "                   [--tagged on|off|both] [--repro-out F]\n"
    "                   [--trace] [--switchless-ops]\n"
    "                   [--depth-ops]\n"
    "  --trace  append the ring-buffer event log to each\n"
    "           shrunk reproducer report\n"
    "  --switchless-ops  widen the op set with the switchless\n"
    "           DescRing post/drain cycle (off by default so\n"
    "           historical seeded streams stay identical)\n"
    "  --depth-ops  widen to the full op set including the\n"
    "           DeepChain composite (depth-3/4 nest build +\n"
    "           hostile hop + AEX in one step); exercises the\n"
    "           SavedChainValidity rule past anything the\n"
    "           serving topology nests\n";

/** Seeds and steps are ints downstream (RunConfig::steps). */
constexpr std::uint64_t kMaxCount = std::numeric_limits<int>::max();

int
reportFailure(const nesgx::check::RunFailure& raw, bool dumpTrace,
              const std::string& reproOut)
{
    std::printf("violation found (seed=%llu, %zu steps); shrinking...\n",
                static_cast<unsigned long long>(raw.seed), raw.steps.size());
    nesgx::check::RunFailure shrunk = nesgx::check::shrinkFailure(raw);
    std::string report = nesgx::check::formatFailure(shrunk);
    if (dumpTrace) {
        report += "event log (" + std::to_string(shrunk.traceLog.size()) +
                  " events, oldest first):\n";
        for (const std::string& line : shrunk.traceLog) {
            report += "  " + line + "\n";
        }
    }
    std::printf("%s", report.c_str());
    if (!reproOut.empty()) {
        std::ofstream out(reproOut);
        out << report;
        std::printf("reproducer written to %s\n", reproOut.c_str());
    }
    return 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    nesgx::Flags flags(argc, argv,
                       {"help", "trace", "switchless-ops", "depth-ops"});
    if (flags.has("help")) {
        std::printf("%s", kUsage);
        return 0;
    }
    nesgx::check::RunConfig config;
    const std::uint64_t seeds = flags.u64("seeds", 16);
    const std::uint64_t steps = flags.u64("steps", config.steps);
    const std::uint64_t firstSeed = flags.u64("seed", 1);
    const std::string taggedMode = flags.str("tagged", "both");
    const bool dumpTrace = flags.has("trace");
    config.switchlessOps = flags.has("switchless-ops");
    config.depthOps = flags.has("depth-ops");
    const std::string reproOut = flags.str("repro-out", "");
    flags.finish();

    if (seeds == 0 || seeds > kMaxCount || steps == 0 || steps > kMaxCount) {
        std::fprintf(stderr, "error: --seeds and --steps must be in 1..%llu\n",
                     (unsigned long long)kMaxCount);
        return 2;
    }
    config.steps = int(steps);
    if (taggedMode != "on" && taggedMode != "off" && taggedMode != "both") {
        std::fprintf(stderr, "error: --tagged takes on|off|both\n");
        return 2;
    }

    std::vector<bool> modes;
    if (taggedMode != "off") modes.push_back(true);
    if (taggedMode != "on") modes.push_back(false);

    for (bool tagged : modes) {
        std::printf("mode taggedTlb=%s: %d seeds x %d steps\n",
                    tagged ? "on" : "off", int(seeds), config.steps);
        for (std::uint64_t i = 0; i < seeds; ++i) {
            config.seed = firstSeed + i;
            config.taggedTlb = tagged;
            auto failure = nesgx::check::runSeed(config);
            if (failure) return reportFailure(*failure, dumpTrace, reproOut);
        }
    }
    std::printf("all invariants held: %d seeds x %d steps x %zu mode(s)\n",
                int(seeds), config.steps, modes.size());
    return 0;
}
