#include "core/daemon.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/registry.hpp"
#include "rng/splitmix64.hpp"
#include "support/narrow.hpp"

namespace ssmis {

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
                     std::unique_ptr<ActivationDaemon> daemon, const CoinOracle& coins)
    : engine_(g, std::move(init), TwoStateRule(coins)), daemon_(std::move(daemon)) {
  if (daemon_ == nullptr)
    throw std::invalid_argument("DaemonMIS: daemon must not be null");
}

Vertex DaemonMIS::step() {
  if (stabilized()) {
    ++steps_;
    return 0;
  }
  const std::vector<Vertex> enabled_now = enabled_set();
  std::vector<Vertex> chosen = daemon_->activate(
      std::span<const Vertex>(enabled_now.data(), enabled_now.size()), steps_ + 1);
  if (chosen.empty()) chosen = enabled_now;  // liveness fallback
  // All chosen vertices resample simultaneously against the frozen state;
  // the engine throws std::logic_error if the daemon activated a vertex that
  // is not enabled.
  engine_.apply_transitions(
      std::span<const Vertex>(chosen.data(), chosen.size()), steps_ + 1);
  ++steps_;
  return narrow_cast<Vertex>(chosen.size());
}

std::vector<Vertex> DaemonMIS::black_set() const {
  return engine_.select([this](Vertex u) { return black(u); });
}

std::int64_t DaemonMIS::run(std::int64_t max_steps) {
  const std::int64_t start = steps_;
  while (!stabilized() && steps_ - start < max_steps) step();
  return steps_ - start;
}

namespace {

// Process adapter: one daemon STEP is the unit the harness counts (a
// central step activates one vertex, a synchronous step up to n — steps are
// not comparable across daemons, but the horizon semantics are uniform).
class DaemonProcess final : public Process {
 public:
  explicit DaemonProcess(DaemonMIS process) : process_(std::move(process)) {}

  const Graph& graph() const override { return process_.graph(); }
  void step() override { process_.step(); }
  std::int64_t round() const override { return process_.steps(); }
  bool stabilized() const override { return process_.stabilized(); }

  RoundStats snapshot() const override {
    const DaemonMIS::Engine& e = process_.engine();
    RoundStats s;
    s.round = process_.steps();
    s.black = e.color_count(Color2::kBlack);
    s.active = e.num_active();
    s.stable_black = e.num_stable_black();
    s.unstable = e.num_unstable();
    s.gray = 0;
    return s;
  }

  // The base-class run() loop over the virtual step()/stabilized() is the
  // right driver here: one daemon step is small, and the per-step virtual
  // dispatch is noise next to the subset activation itself.

  std::vector<Vertex> output_set() const override { return process_.black_set(); }
  bool settled(Vertex u) const override { return !process_.engine().unstable(u); }

  void verify_output() const override {
    verify_mis_output(graph(), process_.black_set());
  }

  void force_state(Vertex u, std::uint8_t raw) override {
    process_.force_color(u, static_cast<Color2>(raw));
  }
  std::uint8_t raw_state(Vertex u) const override {
    return static_cast<std::uint8_t>(
        process_.colors()[static_cast<std::size_t>(u)]);
  }
  int num_colors() const override { return process_.engine().num_colors(); }

 private:
  DaemonMIS process_;
};

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
      return std::make_unique<DaemonProcess>(DaemonMIS(
          g, make_init2(g, params.init, coins),
          make_daemon(params.get_string("daemon", "synchronous"),
                      params.get_double("rho", 0.5), splitmix64_mix(seed)),
          coins));
    }};

}  // namespace

}  // namespace ssmis
