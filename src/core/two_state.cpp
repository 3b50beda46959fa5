#include "core/two_state.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/registry.hpp"

namespace ssmis {

TwoStateRule::TwoStateRule(const CoinOracle& coins, double black_bias,
                           bool eager_white)
    : coins_(coins),
      source_(Source::kConstant),
      black_bias_(black_bias),
      eager_white_(eager_white) {
  if (!(black_bias > 0.0) || !(black_bias < 1.0))
    throw std::invalid_argument("TwoStateRule: black_bias must be in (0,1)");
}

TwoStateRule::TwoStateRule(const CoinOracle& coins,
                           std::shared_ptr<const std::vector<double>> biases)
    : coins_(coins), source_(Source::kTable), biases_(std::move(biases)) {
  if (biases_ == nullptr)
    throw std::invalid_argument("TwoStateRule: bias table must not be null");
  for (double p : *biases_) {
    if (!(p > 0.0) || !(p < 1.0))
      throw std::invalid_argument("TwoStateRule: biases must be in (0,1)");
  }
}

std::shared_ptr<const std::vector<double>> make_priority_biases(
    const Graph& g, const std::string& mode, double lo, double hi,
    std::uint64_t seed) {
  if (!(lo > 0.0) || !(hi < 1.0) || !(lo <= hi))
    throw std::invalid_argument("priority: need 0 < bias-lo <= bias-hi < 1");
  const Vertex n = g.num_vertices();
  auto biases = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(n), (lo + hi) / 2.0);
  auto weight_to_bias = [&](Vertex u, double w) {
    (*biases)[static_cast<std::size_t>(u)] = lo + (hi - lo) * w;
  };
  if (mode == "id") {
    for (Vertex u = 0; u < n; ++u)
      weight_to_bias(u, n > 1 ? static_cast<double>(u) /
                                    static_cast<double>(n - 1)
                              : 1.0);
  } else if (mode == "degree") {
    const std::vector<Vertex> degrees = g.degrees();  // one sweep, any storage
    const Vertex max_deg =
        degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
    for (Vertex u = 0; u < n; ++u)
      weight_to_bias(u, max_deg > 0
                            ? static_cast<double>(
                                  degrees[static_cast<std::size_t>(u)]) /
                                  static_cast<double>(max_deg)
                            : 1.0);
  } else if (mode == "random") {
    const CoinOracle coins(seed);
    for (Vertex u = 0; u < n; ++u)
      weight_to_bias(u, coins.uniform(0, u, CoinTag::kPriority));
  } else {
    throw std::invalid_argument("priority: unknown priority mode '" + mode +
                                "' (valid: id, degree, random)");
  }
  return biases;
}

TwoStateRule TwoStateMIS::checked(const Graph& g, TwoStateRule rule) {
  if (!rule.covers(g.num_vertices()))
    throw std::invalid_argument("TwoStateMIS: bias table size != num_vertices");
  return rule;
}

std::vector<Vertex> TwoStateMIS::black_set() const {
  return engine_.select([this](Vertex u) { return black(u); });
}

std::vector<Vertex> TwoStateMIS::active_set() const {
  return engine_.select([this](Vertex u) { return active(u); });
}

std::vector<Vertex> TwoStateMIS::stable_black_set() const {
  return engine_.select([this](Vertex u) { return stable_black(u); });
}

std::vector<Vertex> TwoStateMIS::unstable_set() const {
  return engine_.select([this](Vertex u) { return engine_.unstable(u); });
}

namespace {

std::unique_ptr<Process> make_two_state(const Graph& g,
                                        const ProtocolParams& params,
                                        TwoStateRule rule,
                                        const CoinOracle& coins) {
  return std::make_unique<MisFamilyAdapter<TwoStateMIS>>(
      TwoStateMIS(g, make_init2(g, params.init, coins), std::move(rule)));
}

// Registry entries. The construction matches the pre-registry harness driver
// exactly (same oracle, same init draw), so registry-era trajectories are
// bit-identical to the enum-era ones (pinned in tests/test_registry.cpp).
const ProtocolRegistrar kTwoStateProtocol{
    "2state",
    "the paper's 2-state MIS process (Definition 4): active vertices "
    "resample uniformly; 1 bit of state, beeping-model implementable",
    {},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return make_two_state(g, params, TwoStateRule(coins), coins);
    }};

const ProtocolRegistrar kTwoStateVariantProtocol{
    "2state-variant",
    "parameterized 2-state ablation: active vertices turn black with "
    "probability black-bias; eager-white makes white->black deterministic",
    {"black-bias", "eager-white"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return make_two_state(
          g, params,
          TwoStateRule(coins, params.get_double("black-bias", 0.5),
                       params.get_bool("eager-white", false)),
          coins);
    }};

const ProtocolRegistrar kPriorityProtocol{
    "priority",
    "weight/ID-biased 2-state MIS: active vertex u turns black with "
    "probability bias-lo + (bias-hi - bias-lo) * w_u "
    "(--proto-priority=id|degree|random); the MIS skews toward "
    "high-priority vertices, validity is unchanged",
    {"priority", "bias-lo", "bias-hi"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return make_two_state(
          g, params,
          TwoStateRule(coins, make_priority_biases(
                                  g, params.get_string("priority", "id"),
                                  params.get_double("bias-lo", 0.25),
                                  params.get_double("bias-hi", 0.75), seed)),
          coins);
    }};

}  // namespace

}  // namespace ssmis
