#include "core/daemon.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/init.hpp"
#include "harness/registry.hpp"
#include "rng/splitmix64.hpp"
#include "support/narrow.hpp"

namespace ssmis {

std::vector<Vertex> RoundRobinDaemon::activate(std::span<const Vertex> enabled,
                                               std::int64_t) {
  auto it = std::lower_bound(enabled.begin(), enabled.end(), cursor_);
  const Vertex chosen = it != enabled.end() ? *it : enabled.front();
  cursor_ = chosen + 1;
  return {chosen};
}

RandomSubsetDaemon::RandomSubsetDaemon(double rho, std::uint64_t seed)
    : rho_(rho), coins_(seed) {
  if (!(rho > 0.0) || rho > 1.0)
    throw std::invalid_argument("RandomSubsetDaemon: need 0 < rho <= 1");
}

std::vector<Vertex> RandomSubsetDaemon::activate(std::span<const Vertex> enabled,
                                                 std::int64_t step) {
  std::vector<Vertex> out;
  for (Vertex u : enabled) {
    if (coins_.bernoulli(step, u, CoinTag::kScheduler, rho_)) out.push_back(u);
  }
  return out;  // may be empty; DaemonMIS falls back to "all"
}

std::string RandomSubsetDaemon::name() const {
  std::ostringstream oss;
  oss << "subset(rho=" << rho_ << ")";
  return oss.str();
}

DaemonMIS::DaemonMIS(const Graph& g, std::vector<Color2> init,
                     std::unique_ptr<ActivationDaemon> daemon, TwoStateRule rule)
    : EngineProcess(g, std::move(init), std::move(rule)),
      daemon_(std::move(daemon)) {
  if (daemon_ == nullptr)
    throw std::invalid_argument("DaemonMIS: daemon must not be null");
}

void DaemonMIS::step() {
  if (daemon_->activates_all()) {
    // The synchronous round at time steps_ + 1: the engine's round and the
    // step count advance together, stabilized or not.
    last_activations_ = engine_.num_scheduled();
    engine_.step();
    ++steps_;
    return;
  }
  last_activations_ = 0;
  if (!stabilized()) {
    const std::vector<Vertex> enabled_now = engine_.scheduled_set();
    std::vector<Vertex> chosen = daemon_->activate(
        std::span<const Vertex>(enabled_now.data(), enabled_now.size()), steps_ + 1);
    if (chosen.empty()) chosen = enabled_now;  // liveness fallback
    // All chosen vertices resample simultaneously against the frozen state;
    // the engine throws std::logic_error if the daemon activated a vertex
    // that is not enabled.
    engine_.apply_transitions(
        std::span<const Vertex>(chosen.data(), chosen.size()), steps_ + 1);
    last_activations_ = narrow_cast<Vertex>(chosen.size());
  }
  ++steps_;
}

namespace {

std::unique_ptr<ActivationDaemon> make_daemon(const std::string& kind,
                                              double rho, std::uint64_t seed) {
  if (kind == "synchronous") return std::make_unique<SynchronousDaemon>();
  if (kind == "central") return std::make_unique<CentralDaemon>(seed);
  if (kind == "random") return std::make_unique<RandomSubsetDaemon>(rho, seed);
  throw std::invalid_argument(
      "protocol daemon: unknown daemon '" + kind +
      "' (valid: synchronous, central, random)");
}

const ProtocolRegistrar kDaemonProtocol{
    "daemon",
    "the 2-state rule under an activation daemon (--proto-daemon="
    "synchronous|central|random, --proto-rho for random); the "
    "synchronous daemon is bit-identical to 2state",
    {"daemon", "rho"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      // The daemon's private scheduler coins must not alias the process's
      // phi_t(u) stream: derive its seed with one avalanching mix.
      return std::make_unique<DaemonMIS>(
          g, make_init2(g, params.init, coins),
          make_daemon(params.get_string("daemon", "synchronous"),
                      params.get_double("rho", 0.5), splitmix64_mix(seed)),
          coins);
    }};

}  // namespace

}  // namespace ssmis
