// Compile-fail fixture: each broken rule or automaton below must fail to
// instantiate with the violated concept's NAME in the diagnostic, not an
// overload-resolution spew:
//
//   * a rule missing `transition`                  -> RuleHasTransition
//   * a rule whose `scheduled` is not const         -> RuleHasScheduling
//   * a rule whose `in_mis` is not const            -> RuleHasMisMembership
//   * a rule whose `fast_forwardable` is not const  -> FastForwardRule
//   * a stone-age automaton missing `orbit_state`   -> StoneAgeAutomaton
//
// The engine holds its rule fixed: a rule callback that mutated the rule
// would make a trajectory depend on how often the engine calls it, so
// constness is part of each concept.
// Driven by check_compile_fail.py, registered in CTest as
// compile_fail_bad_rule; this file is never built into any target.
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "models/stone_age.hpp"

namespace {

using ssmis::Heard;
using ssmis::Vertex;

// Every obligation of ProcessRule, const.
struct Valid {
  using Color = std::uint8_t;
  int num_colors() const { return 2; }
  int num_counters() const { return 1; }
  Vertex contribution(Color, int) const { return 1; }
  bool scheduled(Color, Heard) const { return false; }
  Color transition(Vertex, Color c, Heard, std::int64_t) const { return c; }
  bool active(Color, Heard) const { return false; }
  bool in_mis(Color) const { return false; }
  std::uint32_t mis_counters() const { return 0; }
};

struct NoTransition {
  using Color = std::uint8_t;
  int num_colors() const { return 2; }
  int num_counters() const { return 1; }
  Vertex contribution(Color, int) const { return 1; }
  bool scheduled(Color, Heard) const { return false; }
  // transition(u, c, h, t) deliberately missing.
  bool active(Color, Heard) const { return false; }
  bool in_mis(Color) const { return false; }
  std::uint32_t mis_counters() const { return 0; }
};

struct MutableSchedule : Valid {
  bool scheduled(Color, Heard) { return ++calls > 0; }
  int calls = 0;
};

struct MutableMembership : Valid {
  bool in_mis(Color c) { return ++calls > c; }
  int calls = 0;
};

struct MutableOrbit : Valid {
  bool fast_forwardable(Color, Heard) { return ++calls > 0; }
  Color orbit_color(Vertex, Color c, std::int64_t) const { return c; }
  int calls = 0;
};

// Every StoneAgeAutomaton member but orbit_state.
struct NoOrbitState {
  int num_states() const { return 2; }
  int num_channels() const { return 1; }
  int emit(std::uint8_t s) const { return s == 1 ? 0 : -1; }
  std::uint8_t next(std::uint8_t s, std::uint32_t, std::uint64_t, std::uint64_t) const {
    return s;
  }
  bool quiescent(std::uint8_t, std::uint32_t) const { return false; }
  bool orbit(std::uint8_t, std::uint32_t) const { return false; }
  // orbit_state(state, w_color, w_aux) deliberately missing.
  bool in_mis(std::uint8_t s) const { return s == 1; }
};

template <typename Rule>
void step(const ssmis::Graph& g) {
  ssmis::ProcessEngine<Rule> engine(g, std::vector<typename Rule::Color>{}, Rule{});
  engine.step();
}

}  // namespace

void instantiate(const ssmis::Graph& g) {
  step<NoTransition>(g);
  step<MutableSchedule>(g);
  step<MutableMembership>(g);
  step<MutableOrbit>(g);
  ssmis::StoneAgeRule<NoOrbitState> rule(NoOrbitState{}, ssmis::CoinOracle(1));
}
