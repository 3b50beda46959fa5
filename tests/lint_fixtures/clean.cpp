// Negative-control fixture: idiomatic code that every rule must pass with
// zero findings. Mirrors the repo's sanctioned patterns — seeded
// counter-based randomness, checked narrowing, const rule callbacks.
#include <cstdint>
#include <vector>

using Vertex = std::int32_t;

namespace fake {
template <typename To, typename From>
To narrow_cast(From v) { return static_cast<To>(v); }
}  // namespace fake

template <typename G>
std::int64_t sum_neighbors(const G& g) {
  std::int64_t total = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v : g.neighbors(u)) total += v;
    g.for_each_neighbor(u, [&](Vertex v) { total += v; return true; });
  }
  return total;
}

// Counter-based coin: a pure function of (seed, round, vertex) — the only
// sanctioned randomness in trajectory-affecting code.
std::uint64_t coin(std::uint64_t seed, std::int64_t round, Vertex u) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(round) * 0x9E3779B97F4A7C15ull) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 1);
  x ^= x >> 30;
  return x * 0xBF58476D1CE4E5B9ull;
}

Vertex checked_size(const std::vector<Vertex>& items) {
  return fake::narrow_cast<Vertex>(items.size());
}

struct Heard {
  bool has(int j) const { return j < 0; }
};

struct GoodRule {
  using Color = std::uint8_t;
  Color transition(Vertex u, Color c, Heard h, std::int64_t t) const {
    return static_cast<Color>((c + u + h.has(0) + static_cast<int>(t)) % 2);
  }
  bool scheduled(Color c, Heard h) const { return (c == 1) == h.has(0); }
  bool active(Color c, Heard h) const { return (c == 1) == h.has(0); }
  bool in_mis(Color c) const { return c == 1; }
  int contribution(Color c, int j) const { return c == j ? 1 : 0; }
};
