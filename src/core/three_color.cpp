#include "core/three_color.hpp"

#include <memory>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/registry.hpp"
#include "support/narrow.hpp"

namespace ssmis {

std::vector<Vertex> ThreeColorMIS::black_set() const {
  return engine_.select([this](Vertex u) { return black(u); });
}

bool ThreeColorMIS::inject_fault(Vertex u, std::uint64_t w) {
  force_color(u, static_cast<ColorG>(w % 3));
  PhaseClock* clock = nullptr;
  if (auto* sw = dynamic_cast<RandomizedLogSwitch*>(&switch_process()))
    clock = &sw->clock();
  else if (auto* sw = dynamic_cast<PhaseClockSwitch*>(&switch_process()))
    clock = &sw->clock();
  if (clock != nullptr) {
    clock->force_level(u, narrow_cast<int>(
                              (w >> 8) %
                              static_cast<std::uint64_t>(clock->num_states())));
  }
  return true;
}

namespace {

const ProtocolRegistrar kThreeColorProtocol{
    "3color",
    "the paper's 3-color MIS process (Definition 28) with the randomized "
    "6-state logarithmic switch (or --proto-switch-d=D for the generalized "
    "phase-clock switch): poly(log n) on G(n,p) for ALL p "
    "(--proto-fast-forward=0 disables the lazy-switch fast-forward)",
    {"switch-d", "fast-forward"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      std::unique_ptr<SwitchProcess> sw;
      if (params.has("switch-d")) {
        const int d = narrow_cast<int>(
            params.get_int("switch-d", 3, 1, PhaseClock::kMaxD));
        sw = std::make_unique<PhaseClockSwitch>(g, d, coins);
      } else {
        sw = std::make_unique<RandomizedLogSwitch>(g, coins);
      }
      auto p = std::make_unique<MisFamilyAdapter<ThreeColorMIS>>(ThreeColorMIS(
          g, make_init_g(g, params.init, coins), std::move(sw), coins));
      p->impl().set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
