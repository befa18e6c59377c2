/**
 * Statistic counter type.
 *
 * The stats blocks (trace::StatsCounters, sdk::Urts::CallStats, the
 * switchless EngineStats, the serving layer's tallies) are plain
 * integers: one thread drives a Machine and everything built on it, so
 * nothing bumps a counter concurrently. Declare fields with an
 * initializer (`Counter n = 0;`) — the alias has no default value.
 */
#pragma once

#include <cstdint>

namespace nesgx {

using Counter = std::uint64_t;

}  // namespace nesgx
