// Compile-fail fixture: a rule missing `transition` must make
// ProcessEngine instantiation fail with the violated concept's NAME in the
// diagnostic (ssmis::RuleHasTransition), not an overload-resolution spew.
// Driven by check_compile_fail.py, registered in CTest as
// compile_fail_bad_rule; this file is never built into any target.
#include <cstdint>
#include <vector>

#include "core/engine.hpp"

namespace {

struct NoTransitionRule {
  using Color = std::uint8_t;
  static constexpr bool kTracksStability = false;
  int num_colors() const { return 2; }
  int num_counters() const { return 1; }
  ssmis::Vertex contribution(Color, int) const { return 1; }
  bool scheduled(Color, ssmis::Heard) const { return false; }
  // transition(u, c, h, t) deliberately missing.
};

}  // namespace

void instantiate(const ssmis::Graph& g) {
  ssmis::ProcessEngine<NoTransitionRule> engine(
      g, std::vector<NoTransitionRule::Color>{}, NoTransitionRule{});
  engine.step();
}
