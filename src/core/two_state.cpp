#include "core/two_state.hpp"

#include <memory>
#include <stdexcept>

#include "core/init.hpp"
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

TwoStateRule TwoStateRule::flip() {
  TwoStateRule rule(CoinOracle(0));  // the oracle is never read
  rule.source_ = Source::kFlip;
  return rule;
}

namespace {

std::unique_ptr<Process> make_two_state(const Graph& g,
                                        const ProtocolParams& params,
                                        TwoStateRule rule,
                                        const CoinOracle& coins) {
  return std::make_unique<TwoStateMIS>(g, make_init2(g, params.init, coins),
                                       std::move(rule));
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

}  // namespace

}  // namespace ssmis
