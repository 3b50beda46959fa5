#include "core/three_color.hpp"

#include <memory>
#include <stdexcept>

#include "core/init.hpp"
#include "harness/registry.hpp"
#include "support/narrow.hpp"

namespace ssmis {

ThreeColorRule::ThreeColorRule(const CoinOracle& coins,
                               std::unique_ptr<SwitchProcess> sw)
    : coins_(coins), switch_(std::move(sw)) {
  if (switch_ == nullptr)
    throw std::invalid_argument("ThreeColorMIS: switch must not be null");
  if (switch_->round() != 0)
    throw std::invalid_argument("ThreeColorMIS: switch must start at round 0");
}

void ThreeColorMIS::step() {
  if (fast_forward_) {
    ThreeColorRule& r = engine_.rule();
    const bool quiet = engine_.worklist().empty();
    if (!quiet) r.synced_switch();
    r.set_defer_switch(quiet);
  }
  engine_.step();
}

void ThreeColorMIS::set_fast_forward(bool on) {
  if (!on) {
    ThreeColorRule& r = engine_.rule();
    r.synced_switch();
    r.set_defer_switch(false);
  }
  fast_forward_ = on;
}

bool ThreeColorMIS::inject_fault(Vertex u, std::uint64_t w) {
  force_color(u, static_cast<ColorG>(w % 3));
  if (auto* sw = dynamic_cast<RandomizedLogSwitch*>(&switch_process())) {
    PhaseClock& clock = sw->clock();
    clock.force_level(u, narrow_cast<int>(
                             (w >> 8) %
                             static_cast<std::uint64_t>(clock.num_states())));
  }
  return true;
}

RoundStats ThreeColorMIS::snapshot() const {
  RoundStats s = EngineProcess::snapshot();
  s.gray = engine_.color_count(ColorG::kGray);
  return s;
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
        sw = std::make_unique<RandomizedLogSwitch>(
            PhaseClock::with_random_levels(g, d, coins));
      } else {
        sw = std::make_unique<RandomizedLogSwitch>(g, coins);
      }
      auto p = std::make_unique<ThreeColorMIS>(
          g, make_init_g(g, params.init, coins), std::move(sw), coins);
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
