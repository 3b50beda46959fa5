#include "models/stone_age.hpp"

#include <stdexcept>

namespace ssmis {

StoneAgeRule::StoneAgeRule(const StoneAgeAutomaton* automaton, const CoinOracle& coins)
    : automaton_(automaton), coins_(coins) {
  if (automaton->num_channels() > 32)
    throw std::invalid_argument("StoneAgeNetwork: more than 32 channels");
  std::uint32_t other_channels = 0;
  for (int s = 0; s < automaton->num_states(); ++s) {
    const auto state = static_cast<std::uint8_t>(s);
    const int c = automaton->emit(state);
    if (c >= automaton->num_channels() || c < -1)
      throw std::logic_error("StoneAgeNetwork: automaton emitted bad channel");
    in_mis_.push_back(automaton->in_mis(state) ? 1 : 0);
    if (in_mis(state) && c < 0)
      throw std::invalid_argument("StoneAgeNetwork: an MIS state must beep");
    const std::uint32_t bit = c < 0 ? 0 : 1u << c;
    (in_mis(state) ? mis_channels_ : other_channels) |= bit;
  }
  if ((mis_channels_ & other_channels) != 0)
    throw std::invalid_argument(
        "StoneAgeNetwork: a non-MIS state beeps on an MIS channel");
}

StoneAgeNetwork::StoneAgeNetwork(const Graph& g, const StoneAgeAutomaton& automaton,
                                 std::vector<std::uint8_t> init,
                                 const CoinOracle& coins)
    : EngineProcess(g, std::move(init), StoneAgeRule(&automaton, coins)) {}

void StoneAgeNetwork::step() {
  // Broadcast accounting against the frozen states (histogram sum over the
  // constant-size state alphabet): silent states transmit nothing. Raw
  // histogram entries: the sum over emitting states is exact under
  // fast-forward (orbits keep the number of channels beeped on constant —
  // part of the orbit contract in StoneAgeAutomaton), and staying off the
  // exact-state accessor keeps the per-round cost O(states), not
  // O(periodic set).
  const StoneAgeAutomaton& automaton = engine_.rule().automaton();
  total_transmissions_ +=
      engine_.raw_color_count_if([&](std::uint8_t s) { return automaton.emit(s) >= 0; });
  engine_.step();
}

}  // namespace ssmis
