#include "models/beeping.hpp"

#include <stdexcept>

namespace ssmis {

BeepingNetwork::BeepingNetwork(const Graph& g, const BeepingAutomaton& automaton,
                               std::vector<std::uint8_t> init,
                               const CoinOracle& coins,
                               bool sender_collision_detection)
    : engine_(g, std::move(init),
              BeepingRule(&automaton, coins, sender_collision_detection)) {}

void BeepingNetwork::step() {
  // Broadcast accounting against the frozen states: the number of beeping
  // nodes is a histogram sum over the (constant-size) state alphabet.
  const BeepingAutomaton& automaton = engine_.rule().automaton();
  Vertex beeps = 0;
  for (int s = 0; s < automaton.num_states(); ++s) {
    if (automaton.emit(static_cast<std::uint8_t>(s)) == BeepAction::kBeep)
      beeps += engine_.color_count(static_cast<std::uint8_t>(s));
  }
  beeps_last_round_ = beeps;
  total_beeps_ += beeps;
  engine_.step();
}

void BeepingNetwork::set_loss_probability(double p) {
  if (!(p >= 0.0 && p < 1.0))  // NaN fails both comparisons
    throw std::invalid_argument("set_loss_probability: need p in [0, 1)");
  engine_.rule().set_loss_probability(p);
  // The loss probability is part of the scheduling predicate (a lossy
  // carrier-sense bit can wake otherwise-quiescent states).
  engine_.notify_rule_changed();
}

std::vector<Vertex> BeepingNetwork::claimed_mis() const {
  const BeepingAutomaton& automaton = engine_.rule().automaton();
  return engine_.select(
      [&](Vertex u) { return automaton.in_mis(state(u)); });
}

}  // namespace ssmis
