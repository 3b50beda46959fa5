#include "core/log_switch.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ssmis {

RandomizedLogSwitch::RandomizedLogSwitch(const Graph& g, const CoinOracle& coins,
                                         std::uint64_t zeta_num,
                                         unsigned zeta_log2_den)
    : clock_(PhaseClock::with_random_levels(g, 3, coins, zeta_num, zeta_log2_den)) {}

RandomizedLogSwitch::RandomizedLogSwitch(const Graph& g, const std::vector<int>& init_levels,
                                         const CoinOracle& coins,
                                         std::uint64_t zeta_num,
                                         unsigned zeta_log2_den)
    : clock_(g, 3, init_levels, coins, zeta_num, zeta_log2_den) {}

PhaseClockSwitch::PhaseClockSwitch(const Graph& g, int d, const CoinOracle& coins,
                                   std::uint64_t zeta_num, unsigned zeta_log2_den)
    : clock_(PhaseClock::with_random_levels(g, d, coins, zeta_num, zeta_log2_den)) {}

PeriodicSwitch::PeriodicSwitch(std::int64_t off_len, std::int64_t on_len)
    : off_len_(off_len), on_len_(on_len) {
  if (off_len < 0 || on_len <= 0)
    throw std::invalid_argument("PeriodicSwitch: need off_len >= 0, on_len > 0");
}

SwitchRunStats measure_switch_runs(SwitchProcess& sw, Vertex n, std::int64_t rounds,
                                   std::int64_t warmup) {
  SwitchRunStats stats;
  stats.rounds_observed = rounds;
  stats.min_completed_off_run = std::numeric_limits<std::int64_t>::max();

  std::vector<char> run_value(static_cast<std::size_t>(n));
  std::vector<std::int64_t> run_length(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> run_start(static_cast<std::size_t>(n), 0);

  for (Vertex u = 0; u < n; ++u) {
    run_value[static_cast<std::size_t>(u)] = sw.on(u) ? 1 : 0;
    run_length[static_cast<std::size_t>(u)] = 1;
  }

  auto account_off_completion = [&](Vertex u, std::int64_t /*t*/) {
    // Completed off-run: counted toward S2's minimum only if it started
    // after the warm-up (S2 constrains runs beginning once the clock has
    // synchronized).
    if (run_start[static_cast<std::size_t>(u)] >= warmup) {
      stats.min_completed_off_run = std::min(
          stats.min_completed_off_run, run_length[static_cast<std::size_t>(u)]);
    }
  };

  for (std::int64_t t = 1; t <= rounds; ++t) {
    sw.step();
    for (Vertex u = 0; u < n; ++u) {
      const char now = sw.on(u) ? 1 : 0;
      const auto idx = static_cast<std::size_t>(u);
      if (now == run_value[idx]) {
        ++run_length[idx];
      } else {
        if (run_value[idx] == 0) {
          stats.max_off_run = std::max(stats.max_off_run, run_length[idx]);
          account_off_completion(u, t);
        } else if (run_start[idx] >= warmup) {
          stats.max_on_run = std::max(stats.max_on_run, run_length[idx]);
        }
        run_value[idx] = now;
        run_length[idx] = 1;
        run_start[idx] = t;
      }
    }
  }
  // Runs still open at the horizon: they lower-bound a genuine run length,
  // so they count toward the maxima (S1/S3 violations cannot hide behind the
  // horizon) but not toward the S2 minimum.
  for (Vertex u = 0; u < n; ++u) {
    const auto idx = static_cast<std::size_t>(u);
    if (run_value[idx] == 0) {
      stats.max_off_run = std::max(stats.max_off_run, run_length[idx]);
    } else if (run_start[idx] >= warmup) {
      stats.max_on_run = std::max(stats.max_on_run, run_length[idx]);
    }
  }
  if (stats.min_completed_off_run == std::numeric_limits<std::int64_t>::max())
    stats.min_completed_off_run = 0;  // no completed off-run observed
  return stats;
}

}  // namespace ssmis
