// Property-based tests: paper-level invariants checked across the full
// graph suite x initial pattern x seed grid via parameterized gtest.
#include <gtest/gtest.h>

#include <tuple>

#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "harness/suites.hpp"

namespace ssmis {
namespace {

// Graphs are addressed by suite index so gtest parameter values stay cheap
// to copy; the suites themselves are memoized.
const std::vector<NamedGraph>& suite() {
  static const std::vector<NamedGraph>* s = [] {
    auto* v = new std::vector<NamedGraph>(small_suite(/*seed=*/2024));
    const auto corners = corner_suite();
    v->insert(v->end(), corners.begin(), corners.end());
    return v;
  }();
  return *s;
}

struct ParamNames {
  template <typename T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    const auto [graph_index, seed] = info.param;
    std::string name = suite()[static_cast<std::size_t>(graph_index)].name +
                       "_s" + std::to_string(seed);
    for (char& c : name)
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    return name;
  }
};

using Param = std::tuple<int, int>;  // (suite index, seed)

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (int g = 0; g < static_cast<int>(suite().size()); ++g)
    for (int seed = 1; seed <= 2; ++seed) params.emplace_back(g, seed);
  return params;
}

class ProcessProperty : public ::testing::TestWithParam<Param> {
 protected:
  const Graph& graph() const {
    return suite()[static_cast<std::size_t>(std::get<0>(GetParam()))].graph;
  }
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(std::get<1>(GetParam()));
  }
};

// -- Invariant: every process stabilizes on every suite graph from random
//    states, and the stabilized black set is an MIS.

TEST_P(ProcessProperty, TwoStateStabilizesToMis) {
  const CoinOracle coins(seed());
  TwoStateMIS p(graph(), make_init2(graph(), InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 300000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(graph(), p.black_set()));
}

TEST_P(ProcessProperty, ThreeStateStabilizesToMis) {
  const CoinOracle coins(seed());
  ThreeStateMIS p(graph(), make_init3(graph(), InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 300000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(graph(), p.black_set()));
}

TEST_P(ProcessProperty, ThreeColorStabilizesToMis) {
  const CoinOracle coins(seed());
  auto p = ThreeColorMIS::with_randomized_switch(
      graph(), make_init_g(graph(), InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 300000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(graph(), p.black_set()));
}

// -- Invariant: stability is monotone — once a vertex is stable black, it
//    stays stable black; the unstable count never grows (2-state).

TEST_P(ProcessProperty, TwoStateStabilityMonotone) {
  const CoinOracle coins(seed());
  TwoStateMIS p(graph(), make_init2(graph(), InitPattern::kUniformRandom, coins), coins);
  std::vector<char> ever(static_cast<std::size_t>(graph().num_vertices()), 0);
  Vertex prev_unstable = p.num_unstable();
  for (int i = 0; i < 100 && !p.stabilized(); ++i) {
    p.step();
    for (Vertex u = 0; u < graph().num_vertices(); ++u) {
      if (ever[static_cast<std::size_t>(u)]) {
        ASSERT_TRUE(p.engine().stable_black(u));
      }
      if (p.engine().stable_black(u)) ever[static_cast<std::size_t>(u)] = 1;
    }
    ASSERT_LE(p.num_unstable(), prev_unstable);
    prev_unstable = p.num_unstable();
  }
}

// -- Invariant: the three processes agree on the *fixed-point* semantics:
//    a configuration is a fixed point of the black set iff it is an MIS.

TEST_P(ProcessProperty, GreedyMisIsFixedPointOfAllProcesses) {
  const auto mis = greedy_mis(graph());
  const auto mask = members_to_mask(graph().num_vertices(), mis);
  const CoinOracle coins(seed());

  std::vector<Color2> c2(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    c2[i] = mask[i] ? Color2::kBlack : Color2::kWhite;
  TwoStateMIS p2(graph(), c2, coins);
  EXPECT_TRUE(p2.stabilized());
  for (int i = 0; i < 10; ++i) p2.step();
  EXPECT_EQ(p2.black_set(), mis);

  std::vector<Color3> c3(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    c3[i] = mask[i] ? Color3::kBlack1 : Color3::kWhite;
  ThreeStateMIS p3(graph(), c3, coins);
  EXPECT_TRUE(p3.stabilized());
  for (int i = 0; i < 10; ++i) p3.step();
  EXPECT_EQ(p3.black_set(), mis);

  std::vector<ColorG> cg(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    cg[i] = mask[i] ? ColorG::kBlack : ColorG::kWhite;
  auto pg = ThreeColorMIS::with_randomized_switch(graph(), cg, coins);
  EXPECT_TRUE(pg.stabilized());
  for (int i = 0; i < 10; ++i) pg.step();
  EXPECT_EQ(pg.black_set(), mis);
}

// -- Invariant: determinism — identical seeds give identical runs.

TEST_P(ProcessProperty, RunsAreReproducible) {
  const CoinOracle coins(seed());
  TwoStateMIS a(graph(), make_init2(graph(), InitPattern::kUniformRandom, coins), coins);
  TwoStateMIS b(graph(), make_init2(graph(), InitPattern::kUniformRandom, coins), coins);
  const RunResult ra = run_until_stabilized(a, 300000);
  const RunResult rb = run_until_stabilized(b, 300000);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(a.colors(), b.colors());
}

// -- Invariant: the MIS reported by different algorithms may differ, but
//    each is a valid MIS, and sizes are within the graph's possible range.

TEST_P(ProcessProperty, MisSizesWithinDominationBounds) {
  const CoinOracle coins(seed());
  TwoStateMIS p(graph(), make_init2(graph(), InitPattern::kAllWhite, coins), coins);
  const RunResult r = run_until_stabilized(p, 300000);
  ASSERT_TRUE(r.stabilized);
  const auto mis = p.black_set();
  const auto reference = greedy_mis(graph());
  // Any MIS is a dominating set; sizes are within a (Delta+1) factor of any
  // other MIS (each member dominates at most Delta+1 vertices).
  const double delta_plus_1 = graph().max_degree() + 1;
  EXPECT_GE(static_cast<double>(mis.size()) * delta_plus_1,
            static_cast<double>(reference.size()));
  EXPECT_GE(static_cast<double>(reference.size()) * delta_plus_1,
            static_cast<double>(mis.size()));
}

INSTANTIATE_TEST_SUITE_P(Suite, ProcessProperty, ::testing::ValuesIn(all_params()),
                         ParamNames());

}  // namespace
}  // namespace ssmis
