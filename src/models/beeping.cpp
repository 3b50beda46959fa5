#include "models/beeping.hpp"

#include <stdexcept>

namespace ssmis {

BeepingRule::BeepingRule(const BeepingAutomaton* automaton, const CoinOracle& coins,
                         bool sender_collision_detection)
    : automaton_(automaton), coins_(coins), sender_cd_(sender_collision_detection) {
  for (int s = 0; s < automaton->num_states(); ++s) {
    const auto state = static_cast<std::uint8_t>(s);
    in_mis_.push_back(automaton->in_mis(state) ? 1 : 0);
    if (in_mis(state) != (automaton->emit(state) == BeepAction::kBeep))
      throw std::invalid_argument(
          "BeepingNetwork: the automaton must beep in exactly its MIS states");
  }
}

BeepingNetwork::BeepingNetwork(const Graph& g, const BeepingAutomaton& automaton,
                               std::vector<std::uint8_t> init,
                               const CoinOracle& coins,
                               bool sender_collision_detection)
    : EngineProcess(g, std::move(init),
                    BeepingRule(&automaton, coins, sender_collision_detection)) {}

void BeepingNetwork::step() {
  // Broadcast accounting against the frozen states: exactly the MIS states
  // beep, so the beeping nodes are B_t.
  beeps_last_round_ = num_black();
  total_beeps_ += beeps_last_round_;
  engine_.step();
}

void BeepingNetwork::set_loss_probability(double p) {
  if (!(p >= 0.0 && p < 1.0))  // NaN fails both comparisons
    throw std::invalid_argument("set_loss_probability: need p in [0, 1)");
  if (p == engine_.rule().loss_probability()) return;
  engine_.rule().set_loss_probability(p);
  // The loss probability is part of the scheduling predicate (a lossy
  // carrier-sense bit can wake otherwise-quiescent states).
  engine_.notify_rule_changed();
}

}  // namespace ssmis
