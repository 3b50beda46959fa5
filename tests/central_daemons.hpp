// The central policies the sequential algorithm runs under, as
// ActivationDaemons: round-robin and the uniformly random CentralDaemon from
// core/daemon.hpp, and two deterministic picks only tests use, max-degree and
// lowest-id (PickDaemon).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "graph/graph.hpp"

namespace ssmis {

// A central policy given as a pick from the enabled set.
class PickDaemon final : public ActivationDaemon {
 public:
  using Pick = std::function<Vertex(std::span<const Vertex>)>;
  PickDaemon(std::string name, Pick pick) : name_(std::move(name)), pick_(std::move(pick)) {}
  std::vector<Vertex> activate(std::span<const Vertex> enabled, std::int64_t) override {
    return {pick_(enabled)};
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Pick pick_;
};

// The four central policies: the deterministic ones first, then the
// uniformly random CentralDaemon.
inline constexpr const char* kCentralPolicies[] = {"round-robin", "max-degree", "lowest-id",
                                                   "central"};

inline std::unique_ptr<ActivationDaemon> central_daemon(const std::string& policy,
                                                        const Graph& g,
                                                        std::uint64_t seed = 7) {
  if (policy == "round-robin") return std::make_unique<RoundRobinDaemon>();
  if (policy == "central") return std::make_unique<CentralDaemon>(seed);
  if (policy == "max-degree") {
    // The adversary flavor: the enabled vertex with the most neighbors whose
    // enabledness its move may toggle, the lowest id among ties.
    return std::make_unique<PickDaemon>(policy, [g](std::span<const Vertex> enabled) {
      return *std::max_element(enabled.begin(), enabled.end(), [&g](Vertex a, Vertex b) {
        return g.degree(a) < g.degree(b);
      });
    });
  }
  if (policy == "lowest-id") {
    return std::make_unique<PickDaemon>(
        policy, [](std::span<const Vertex> enabled) { return enabled.front(); });
  }
  throw std::invalid_argument("unknown central policy " + policy);
}

}  // namespace ssmis
