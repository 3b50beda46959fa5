#include "core/init.hpp"

#include <algorithm>

namespace ssmis {

std::string to_string(Color2 c) {
  return c == Color2::kBlack ? "black" : "white";
}

std::string to_string(Color3 c) {
  switch (c) {
    case Color3::kWhite: return "white";
    case Color3::kBlack0: return "black0";
    case Color3::kBlack1: return "black1";
  }
  return "?";
}

std::string to_string(ColorG c) {
  switch (c) {
    case ColorG::kWhite: return "white";
    case ColorG::kBlack: return "black";
    case ColorG::kGray: return "gray";
  }
  return "?";
}

std::string to_string(InitPattern pattern) {
  switch (pattern) {
    case InitPattern::kAllWhite: return "all-white";
    case InitPattern::kAllBlack: return "all-black";
    case InitPattern::kUniformRandom: return "uniform-random";
    case InitPattern::kAlternating: return "alternating";
    case InitPattern::kHighDegreeBlack: return "high-degree-black";
    case InitPattern::kOneBlack: return "one-black";
  }
  return "?";
}

const std::vector<InitPattern>& all_init_patterns() {
  static const std::vector<InitPattern> kAll = {
      InitPattern::kAllWhite,        InitPattern::kAllBlack,
      InitPattern::kUniformRandom,   InitPattern::kAlternating,
      InitPattern::kHighDegreeBlack, InitPattern::kOneBlack,
  };
  return kAll;
}

namespace {

// Which vertices start "black" under a pattern. Built once per make_init*
// call, so the median degree is computed once for that call's graph.
class BlackStart {
 public:
  BlackStart(const Graph& g, InitPattern pattern, const CoinOracle& coins)
      : g_(g), pattern_(pattern), coins_(coins) {
    if (pattern != InitPattern::kHighDegreeBlack) return;
    std::vector<Vertex> degrees = g.degrees();
    if (degrees.empty()) return;
    auto mid = degrees.begin() + static_cast<std::ptrdiff_t>(degrees.size() / 2);
    std::nth_element(degrees.begin(), mid, degrees.end());
    median_degree_ = *mid;
  }

  bool operator()(Vertex u) const {
    switch (pattern_) {
      case InitPattern::kAllWhite: return false;
      case InitPattern::kAllBlack: return true;
      case InitPattern::kUniformRandom:
        return coins_.fair_coin(0, u, CoinTag::kInit);
      case InitPattern::kAlternating: return (u % 2) == 0;
      // Degree above (strictly) the median.
      case InitPattern::kHighDegreeBlack: return g_.degree(u) > median_degree_;
      case InitPattern::kOneBlack: return u == 0;
    }
    return false;
  }

 private:
  const Graph& g_;
  InitPattern pattern_;
  const CoinOracle& coins_;
  Vertex median_degree_ = 0;
};

}  // namespace

std::vector<Color2> make_init2(const Graph& g, InitPattern pattern,
                               const CoinOracle& coins) {
  const BlackStart black(g, pattern, coins);
  std::vector<Color2> init(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    init[static_cast<std::size_t>(u)] = black(u) ? Color2::kBlack : Color2::kWhite;
  return init;
}

// The two initializers below draw every coin for every vertex and select
// the color arithmetically, so no step branches on a coin: the black split
// of a random start would mispredict about half the time.

std::vector<Color3> make_init3(const Graph& g, InitPattern pattern,
                               const CoinOracle& coins) {
  static_assert(static_cast<int>(Color3::kBlack0) == 1 &&
                static_cast<int>(Color3::kBlack1) == 2);
  const BlackStart black(g, pattern, coins);
  std::vector<Color3> init(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    // Black starts split between the two black states deterministically.
    const int split = coins.fair_coin(1, u, CoinTag::kInit);
    init[static_cast<std::size_t>(u)] = static_cast<Color3>(black(u) * (1 + split));
  }
  return init;
}

std::vector<ColorG> make_init_g(const Graph& g, InitPattern pattern,
                                const CoinOracle& coins) {
  static_assert(static_cast<int>(ColorG::kBlack) == 1 &&
                static_cast<int>(ColorG::kGray) == 2);
  const BlackStart black(g, pattern, coins);
  // Under the uniform pattern a quarter of non-black starters begin gray:
  // adversarial inits must exercise the gray state too.
  const bool gray_starts = pattern == InitPattern::kUniformRandom;
  std::vector<ColorG> init(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const int is_black = black(u);
    const int gray =
        !is_black & (gray_starts && coins.dyadic_bernoulli(2, u, CoinTag::kInit, 1, 2));
    init[static_cast<std::size_t>(u)] = static_cast<ColorG>(is_black + 2 * gray);
  }
  return init;
}

}  // namespace ssmis
