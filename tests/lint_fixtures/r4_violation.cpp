// Seeded R4 violations: rule callbacks that are not const member functions.
// The engine re-evaluates a vertex's predicates only when its color or what
// it hears changed, so a callback that mutates the rule would make the
// trajectory depend on how often the engine calls it. Each non-const
// callback below must be flagged; the const ones must not.
#include <cstdint>

struct Heard {
  bool has(int j) const { return j < 0; }
};

struct BadRule {
  using Color = std::uint8_t;
  int flips = 0;
  int reads = 0;
  Color transition(int u, Color c, Heard h, std::int64_t t) {  // R4: non-const
    ++flips;
    return static_cast<Color>((c + u + static_cast<int>(t) + h.has(0)) % 2);
  }
  bool active(Color c, Heard h) {  // R4: non-const predicate
    ++reads;
    return (c == 1) == h.has(0);
  }
  bool violating(Color c, Heard h) noexcept {  // R4: noexcept is not const
    return (c == 1) == h.has(0);
  }
  bool scheduled(Color c, Heard h) const {  // ok: const callback
    return (c == 1) == h.has(0);
  }
  bool stable_black(Color c, Heard h) const {  // ok: const callback
    return c == 1 && !h.has(0);
  }
};
