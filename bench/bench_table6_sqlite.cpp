/**
 * Reproduces paper Table VI: SQLite throughput with YCSB (uniform random
 * request distribution), nested normalized to the monolithic baseline,
 * for the paper's four workload mixes over 10 000 queries.
 */
#include "apps/sql_app.h"
#include "bench_util.h"

namespace nesgx::bench {
namespace {

double
run(apps::SqlService::SqlLayout layout, const db::YcsbMix& mix,
    std::uint64_t records, std::uint64_t queries, std::uint64_t seed)
{
    BenchWorld world(defaultConfig());
    auto service =
        apps::SqlService::create(*world.urts, layout).orThrow("service");

    db::YcsbWorkload workload(records, 64, seed);
    service->query(workload.createTableSql()).orThrow("create");
    service->load(workload.loadPhase()).orThrow("load");
    auto ops = workload.run(mix, queries);

    auto& clock = world.machine.clock();
    std::uint64_t before = clock.cycles();
    for (const auto& op : ops) {
        auto result = service->query(workload.toSql(op));
        if (!result || !result.value().ok) {
            std::fprintf(stderr, "query failed in %s\n", mix.name.c_str());
            std::exit(1);
        }
    }
    double secs =
        double(clock.cycles() - before) / double(clock.frequencyHz());
    return double(queries) / secs;  // ops/s
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    std::uint64_t queries = flags.u64("queries", 2000);
    std::uint64_t records = flags.u64("records", 1000);
    flags.finish();

    header("Table VI: SQLite throughput with YCSB "
           "(uniform random request distribution)");
    note("paper: normalized throughput 0.99 / 0.99 / 0.98 / 0.98");
    note("queries: " + std::to_string(queries) +
         " (paper: 10000; use --queries 10000), records: " +
         std::to_string(records));

    std::printf("\n  %-28s %14s %14s %12s\n", "Workload", "mono ops/s",
                "nested ops/s", "normalized");

    std::uint64_t seed = 0x5eed;
    for (const auto& mix : nesgx::db::tableVIMixes()) {
        double mono = run(nesgx::apps::SqlService::SqlLayout::Monolithic,
                          mix, records, queries, seed);
        double nested = run(nesgx::apps::SqlService::SqlLayout::Nested, mix,
                            records, queries, seed);
        std::printf("  %-28s %14.0f %14.0f %12.2f\n", mix.name.c_str(), mono,
                    nested, nested / mono);
    }
    return 0;
}
