// Luby's algorithm (1986): the classical O(log n)-round randomized
// distributed MIS baseline.
//
// Round: every undecided vertex draws a uniform priority; a vertex whose
// priority beats all undecided neighbors' joins the MIS, and its neighbors
// drop out. Terminates when no vertex is undecided.
//
// Included as the comparison point of experiment E12: it is fast from a
// clean start but NOT self-stabilizing — its decided/undecided flags are
// never re-examined, so a transient fault (or adversarial initial flags)
// yields a wrong answer forever. `corrupt_decisions` makes that failure
// observable.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

enum class LubyStatus : std::uint8_t { kUndecided = 0, kInMis = 1, kOut = 2 };

class LubyMIS {
 public:
  // Clean start: all vertices undecided. LubyMIS keeps its own handle on
  // g: a Graph copy shares the storage, so g need not outlive it.
  LubyMIS(const Graph& g, const CoinOracle& coins);

  // Adversarial start for the self-stabilization failure demo.
  LubyMIS(const Graph& g, std::vector<LubyStatus> init, const CoinOracle& coins);

  void step();
  bool done() const { return num_undecided_ == 0; }
  std::int64_t round() const { return round_; }

  LubyStatus status(Vertex u) const { return status_[static_cast<std::size_t>(u)]; }
  Vertex num_undecided() const { return num_undecided_; }
  std::vector<Vertex> mis_set() const;

  // Runs to completion; returns the number of rounds used.
  std::int64_t run(std::int64_t max_rounds);

  // Transient fault: overwrite `u`'s decision. The algorithm has no repair
  // path — subsequent rounds never revisit decided vertices.
  void corrupt_decision(Vertex u, LubyStatus s);

 private:
  Graph graph_;  // a handle: copies share the storage
  CoinOracle coins_;
  std::vector<LubyStatus> status_;
  std::int64_t round_ = 0;
  Vertex num_undecided_ = 0;
};

}  // namespace ssmis
