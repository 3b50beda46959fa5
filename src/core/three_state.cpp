#include "core/three_state.hpp"

#include <memory>

#include "core/init.hpp"
#include "harness/registry.hpp"

namespace ssmis {

namespace {

const ProtocolRegistrar kThreeStateProtocol{
    "3state",
    "the paper's 3-state MIS process (Definition 5): stable blacks keep "
    "re-randomizing black1/black0; stone-age implementable, no collision "
    "detection (--proto-fast-forward=0 disables stable-periodic "
    "fast-forward)",
    {"fast-forward"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      auto p = std::make_unique<ThreeStateMIS>(
          g, make_init3(g, params.init, coins), coins);
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
