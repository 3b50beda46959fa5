#include "core/faults.hpp"

#include "rng/coin_oracle.hpp"

namespace ssmis {

FaultReport inject_faults(Process& process, double fraction, std::int64_t salt) {
  FaultReport report;
  CoinOracle fault_coins(static_cast<std::uint64_t>(salt) * 0x9e3779b97f4a7c15ULL + 43);
  for (Vertex u = 0; u < process.graph().num_vertices(); ++u) {
    if (!fault_coins.bernoulli(0, u, CoinTag::kFault, fraction)) continue;
    process.inject_fault(u, fault_coins.word(1, u, CoinTag::kFault));
    ++report.corrupted;
  }
  return report;
}

}  // namespace ssmis
