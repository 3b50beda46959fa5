#include "core/luby.hpp"

#include <stdexcept>

namespace ssmis {

LubyMIS::LubyMIS(const Graph& g, const CoinOracle& coins)
    : LubyMIS(g,
              std::vector<LubyStatus>(static_cast<std::size_t>(g.num_vertices()),
                                      LubyStatus::kUndecided),
              coins) {}

LubyMIS::LubyMIS(const Graph& g, std::vector<LubyStatus> init, const CoinOracle& coins)
    : graph_(g), coins_(coins), status_(std::move(init)) {
  if (status_.size() != static_cast<std::size_t>(g.num_vertices()))
    throw std::invalid_argument("LubyMIS: init size != num_vertices");
  for (LubyStatus s : status_)
    if (s == LubyStatus::kUndecided) ++num_undecided_;
}

void LubyMIS::step() {
  const std::int64_t t = ++round_;
  const Vertex n = graph_.num_vertices();
  // Priorities are (uniform double, vertex id) pairs; the id breaks the
  // measure-zero ties deterministically.
  auto beats = [&](Vertex a, Vertex b) {
    const double pa = coins_.uniform(t, a, CoinTag::kLuby);
    const double pb = coins_.uniform(t, b, CoinTag::kLuby);
    return pa > pb || (pa == pb && a > b);
  };
  std::vector<Vertex> winners;
  for (Vertex u = 0; u < n; ++u) {
    if (status(u) != LubyStatus::kUndecided) continue;
    bool is_local_max = true;
    graph_.for_each_neighbor(u, [&](Vertex v) {
      if (status(v) == LubyStatus::kUndecided && beats(v, u)) {
        is_local_max = false;
        return false;
      }
      return true;
    });
    if (is_local_max) winners.push_back(u);
  }
  for (Vertex u : winners) {
    status_[static_cast<std::size_t>(u)] = LubyStatus::kInMis;
    --num_undecided_;
    graph_.for_each_neighbor(u, [&](Vertex v) {
      if (status(v) == LubyStatus::kUndecided) {
        status_[static_cast<std::size_t>(v)] = LubyStatus::kOut;
        --num_undecided_;
      }
    });
  }
}

std::vector<Vertex> LubyMIS::mis_set() const {
  std::vector<Vertex> out;
  for (Vertex u = 0; u < graph_.num_vertices(); ++u)
    if (status(u) == LubyStatus::kInMis) out.push_back(u);
  return out;
}

std::int64_t LubyMIS::run(std::int64_t max_rounds) {
  while (!done() && round_ < max_rounds) step();
  return round_;
}

void LubyMIS::corrupt_decision(Vertex u, LubyStatus s) {
  if (u < 0 || u >= graph_.num_vertices())
    throw std::out_of_range("corrupt_decision: vertex out of range");
  auto& cur = status_[static_cast<std::size_t>(u)];
  if (cur == LubyStatus::kUndecided && s != LubyStatus::kUndecided) --num_undecided_;
  if (cur != LubyStatus::kUndecided && s == LubyStatus::kUndecided) ++num_undecided_;
  cur = s;
}

}  // namespace ssmis
