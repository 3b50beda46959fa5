// Unified sparse process engine: active-set scheduling for every MIS
// process and communication-model simulation in the library.
//
// The structural fact the engine exploits is Giakkoupis-Ziccardi's: only
// *scheduled* vertices take a transition in a round, and whether a vertex is
// scheduled depends solely on its own color and on what it hears — for each
// incrementally maintained neighbor counter, whether it is positive (`Heard`
// below: "some neighbor is black", or "some neighbor beeps on channel j").
// So scheduling can change only at the vertices that changed color and at
// the neighbors one of whose counters crossed zero. A round therefore costs
//
//     O(|A_t| + sum of deg(u) over vertices whose color class changed)
//
// counter patches, but re-evaluates only the changed vertices and the
// neighbors whose hearing changed, instead of the O(n + m) dense rescan of
// the hand-rolled per-process loops. Every aggregate the tracer wants
// (|B_t|, |A_t|, |I_t|, |Gamma_t|) is maintained incrementally and read in
// O(1); |V_t|'s stable-black coverage is built by its first reader and
// maintained from then on.
//
// The engine is policy-based: `ProcessEngine<Rule>` owns colors, counters,
// the worklist, and the aggregates; the Rule, a value the engine only
// reads, supplies the paper's transition table, its scheduling and
// activity predicates and its MIS membership (see `ProcessRule` below);
// the MIS bookkeeping is derived from the membership here, once. Five rules
// cover every process: the 2-state rule (with its bias sources it also runs
// the ablation and daemon workloads, and with its coinless flip the
// sequential central-daemon baseline), 3-state, 3-color,
// and the beeping and stone-age network simulators' automaton rules — all
// over this one stepping core, with the same MIS bookkeeping for each.
//
// Randomness: rules draw coins from the counter-based CoinOracle, where
// every coin is a pure function of (seed, round, vertex, tag). Because no
// sequential RNG stream exists, sparse scheduling is *bit-identical* to the
// dense seed semantics: the same vertices take the same transitions with the
// same coins, in any iteration order. The differential tests assert this
// round-by-round against the naive transcriptions of Definitions 4, 5, 26
// and 28.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "support/narrow.hpp"

namespace ssmis {

// Sparse vertex set with O(1) insert / erase / contains and O(|set|)
// unordered iteration. Backing store for the engine's active-set worklist.
class VertexWorklist {
 public:
  // Makes the set exactly {u : (flags[u] & mask) == value} over the
  // universe [0, flags.size()), in ascending order, without a branch per
  // vertex.
  void assign(std::span<const std::uint8_t> flags, std::uint8_t mask, std::uint8_t value);

  [[nodiscard]] bool contains(Vertex u) const { return pos_[static_cast<std::size_t>(u)] >= 0; }

  // No-op if already present.
  void insert(Vertex u) {
    Vertex& p = pos_[static_cast<std::size_t>(u)];
    if (p >= 0) return;
    p = narrow_cast<Vertex>(items_.size());
    items_.push_back(u);
  }

  // No-op if absent (swap-with-last removal).
  void erase(Vertex u) {
    Vertex& p = pos_[static_cast<std::size_t>(u)];
    if (p < 0) return;
    const Vertex last = items_.back();
    items_[static_cast<std::size_t>(p)] = last;
    pos_[static_cast<std::size_t>(last)] = p;
    items_.pop_back();
    p = -1;
  }

  [[nodiscard]] Vertex size() const { return narrow_cast<Vertex>(items_.size()); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  // Unordered view of the members (stable while no insert/erase happens).
  [[nodiscard]] const std::vector<Vertex>& items() const { return items_; }

  // Members in ascending vertex order (O(|set| log |set|) copy + sort).
  [[nodiscard]] std::vector<Vertex> sorted() const;

 private:
  std::vector<Vertex> items_;
  std::vector<Vertex> pos_;  // index into items_, or -1 if absent
};

// What a vertex hears of its neighborhood: bit j is set exactly when its
// neighbor counter j is positive. It is all the paper's processes observe —
// "some neighbor is black", or in the beeping and stone-age translations
// "some neighbor beeps on channel j", the carrier-sense bit — and all a
// rule callback is given, so a counter patch that crosses no zero cannot
// change any rule predicate. Exact counts stay public through
// ProcessEngine::counter.
class Heard {
 public:
  constexpr Heard() = default;
  constexpr explicit Heard(std::uint32_t bits) : bits_(bits) {}

  // The hearing of a counter row of length k <= 32.
  static Heard of(const Vertex* cnt, int k) {
    std::uint32_t bits = 0;
    for (int j = 0; j < k; ++j)
      bits |= static_cast<std::uint32_t>(cnt[j] > 0) << j;
    return Heard(bits);
  }

  // Some neighbor contributes to counter j.
  [[nodiscard]] constexpr bool has(int j) const { return ((bits_ >> j) & 1u) != 0; }
  // Bit j = has(j): the stone-age heard mask.
  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }

 private:
  std::uint32_t bits_ = 0;
};

// The policy interface. A rule is a value type describing one process; the
// engine holds it fixed for the whole run and only calls its const members:
//
//   using Color = ...;                 // uint8-backed enum or std::uint8_t
//   int num_colors() const;            // histogram size (raw color values)
//   int num_counters() const;          // neighbor counters per vertex (<= 32)
//   Vertex contribution(Color c, int j) const;
//                                      // how much a c-colored neighbor adds
//                                      // to counter j (typically 0/1; never
//                                      // negative)
//   bool scheduled(Color c, Heard h) const;
//                                      // u takes SOME transition next round
//   Color transition(Vertex u, Color c, Heard h, int64_t t) const;
//                                      // the next color; called only for
//                                      // scheduled vertices, must be a pure
//                                      // function of its arguments + coins
//   bool active(Color c, Heard h) const;  // u ∈ A_t
//   bool in_mis(Color c) const;        // c claims MIS membership (black)
//   uint32_t mis_counters() const;     // bit j: counter j counts MIS
//                                      // neighbors
//
// Every rule is an MIS process, and the paper's bookkeeping is the same for
// each, so the engine derives it: u hears an MIS neighbor when one of the
// mis_counters() is positive; it violates the MIS when in_mis(c) equals
// that bit (a black with a black neighbor, a non-black without one), and
// it is a stable black (u ∈ I_t) when it is a member hearing none. The
// constructor checks that the mask says what the rule means: a color
// contributes to a masked counter exactly when it is in the MIS.
//
// ProcessRule is decomposed into one named concept per obligation so that a
// rule missing a member fails ProcessEngine's static_assert cascade with
// the obligation's name in the diagnostic (pinned by
// tests/compile_fail/bad_rule.cpp) instead of an overload-resolution spew.
template <typename R>
concept RuleHasColor = requires { typename R::Color; };

// num_colors()/num_counters() — the engine's array shapes.
template <typename R>
concept RuleHasShape = requires(const R r) {
  { r.num_colors() } -> std::convertible_to<int>;
  { r.num_counters() } -> std::convertible_to<int>;
};

// contribution(c, j) — what a c-colored neighbor adds to counter j.
template <typename R>
concept RuleHasContribution =
    RuleHasColor<R> && requires(const R r, typename R::Color c, int j) {
      { r.contribution(c, j) } -> std::convertible_to<Vertex>;
    };

// scheduled(c, h) — does the vertex take SOME transition next round?
template <typename R>
concept RuleHasScheduling =
    RuleHasColor<R> && requires(const R r, typename R::Color c, Heard h) {
      { r.scheduled(c, h) } -> std::convertible_to<bool>;
    };

// transition(u, c, h, t) — the next color; pure in its arguments + coins.
template <typename R>
concept RuleHasTransition =
    RuleHasColor<R> &&
    requires(const R r, typename R::Color c, Heard h, Vertex u, std::int64_t t) {
      { r.transition(u, c, h, t) } -> std::convertible_to<typename R::Color>;
    };

// active(c, h) — u ∈ A_t, the paper's activity column.
template <typename R>
concept RuleHasActivity =
    RuleHasColor<R> && requires(const R r, typename R::Color c, Heard h) {
      { r.active(c, h) } -> std::convertible_to<bool>;
    };

// in_mis(c) and mis_counters() — the MIS membership the engine derives
// the violations and I_t from.
template <typename R>
concept RuleHasMisMembership =
    RuleHasColor<R> && requires(const R r, typename R::Color c) {
      { r.in_mis(c) } -> std::convertible_to<bool>;
      { r.mis_counters() } -> std::convertible_to<std::uint32_t>;
    };

template <typename R>
concept ProcessRule = RuleHasColor<R> && RuleHasShape<R> && RuleHasContribution<R> &&
                      RuleHasScheduling<R> && RuleHasTransition<R> &&
                      RuleHasActivity<R> && RuleHasMisMembership<R>;

// Optional fast-forward extension for memoryless orbits
// (docs/architecture.md, "Stable-periodic fast-forward"). A rule that
// implements it declares, for some (color, hearing) pairs, that the
// vertex is on a MEMORYLESS orbit: as long as what it hears stays put, its
// color at round t is orbit_color(u, c, t), a pure function of the orbit
// and round t's counter-based coins, whatever round it entered at. The
// rule promises that along the orbit
//
//   * scheduled and active are constant, with scheduled TRUE (a quiescent
//     vertex is already off the worklist for free), and so is the MIS
//     membership `in_mis(c)`; with the hearing fixed, that keeps the
//     derived violation and stable-black flags constant too, and lets
//     EngineProcess count |B_t| from the raw histogram, which a parked
//     orbit leaves at the color it parked with;
//   * transition(u, c', h, t) == orbit_color(u, c, t) for every c' of the
//     orbit: stepping the vertex and evaluating the orbit agree;
//   * the only counter components of OTHER vertices that the orbit's color
//     changes would move are components no live vertex's predicates or
//     transition can observe while the mover is on its orbit (the "output
//     projection" contract: the MIS-relevant projection of the orbit is
//     constant, and neighbors can only hear the projection).
//
// Under that contract the engine parks a scheduled vertex off the hot
// worklist when its configuration is an orbit AND its stored color already
// is the orbit's color for the current round, so ONE orbit_color
// evaluation at any later round is exact. It materializes a parked vertex
// exactly when its hearing changes (a neighbor's color change moves one of
// its counters across zero), when a fault (force_color) hits it or changes
// its hearing, or when an exact-state query needs it — so trajectories and
// fingerprints are bit-identical to the dense semantics while
// near-stabilized rounds cost O(1). A vertex in an orbit configuration but
// on another color (an initial color, a fault) stays live until its next
// color change puts it on the orbit.
//
//   bool fast_forwardable(Color c, Heard h) const;
//   Color orbit_color(Vertex u, Color c, std::int64_t t) const;
//       // the color at round t of the orbit c is on; O(1), and it reads
//       // no hearing: at materialization the hearing may already have
//       // left the orbit.
template <typename R>
concept FastForwardRule =
    ProcessRule<R> &&
    requires(const R r, typename R::Color c, Heard h, Vertex u, std::int64_t t) {
      { r.fast_forwardable(c, h) } -> std::convertible_to<bool>;
      { r.orbit_color(u, c, t) } -> std::convertible_to<typename R::Color>;
    };

// A rule that names either fast-forward member means to declare orbits, so
// ProcessEngine holds it to FastForwardRule: a non-const declaration or a
// drifted signature would otherwise switch fast-forward off silently.
template <typename R>
concept NamesFastForward = requires { &R::fast_forwardable; } || requires { &R::orbit_color; };

template <typename Rule>
class ProcessEngine {
  // Deliberately `typename` + a static_assert cascade rather than
  // `template <ProcessRule Rule>`: an unconstrained parameter lets every
  // missing obligation report its OWN named concept here, where a
  // constrained template would only say "constraints not satisfied".
  static_assert(RuleHasColor<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasColor — it must define a nested Color type "
                "(the raw per-vertex state)");
  static_assert(RuleHasShape<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasShape — it must provide const "
                "num_colors()/num_counters() returning int");
  static_assert(RuleHasContribution<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasContribution — it must provide const "
                "contribution(Color, int) -> Vertex");
  static_assert(RuleHasScheduling<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasScheduling — it must provide const "
                "scheduled(Color, Heard) -> bool");
  static_assert(RuleHasTransition<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasTransition — it must provide const "
                "transition(Vertex, Color, Heard, int64_t) -> Color");
  static_assert(RuleHasActivity<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasActivity — it must provide const "
                "active(Color, Heard) -> bool");
  static_assert(RuleHasMisMembership<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasMisMembership — it must provide const "
                "in_mis(Color) -> bool and mis_counters() -> uint32_t");
  static_assert(ProcessRule<Rule>,
                "ProcessEngine<Rule>: Rule does not satisfy "
                "ssmis::ProcessRule (see the failed sub-concept above)");
  static_assert(!NamesFastForward<Rule> || FastForwardRule<Rule>,
                "ProcessEngine<Rule>: Rule names fast_forwardable/orbit_color "
                "but violates concept ssmis::FastForwardRule — both must be "
                "const: fast_forwardable(Color, Heard) -> bool, "
                "orbit_color(Vertex, Color, int64_t) -> Color");

 public:
  using Color = typename Rule::Color;
  // Rules satisfying FastForwardRule get stable-periodic fast-forward; for
  // everything else the machinery folds away at compile time (nothing is
  // parked, no extra branches in refresh, accessors stay raw).
  static constexpr bool kFastForward = FastForwardRule<Rule>;
  static constexpr int kMaxCounters = 32;

  // `init` must have size g.num_vertices() and only colors with raw value
  // below rule.num_colors(). Throws std::invalid_argument otherwise, on a
  // negative contribution (the zero-crossing test in patch_neighbors
  // relies on counters that never go negative), on a contribution whose
  // sum over n - 1 neighbors would not fit a counter, and unless a color
  // contributes to one of the rule's mis_counters() exactly when it is in
  // the MIS (the premise of the derived bookkeeping). The engine keeps its
  // own handle on g: a Graph copy shares the storage, so g need not
  // outlive it.
  ProcessEngine(const Graph& g, std::vector<Color> init, Rule rule)
      : graph_(g), rule_(std::move(rule)), colors_(std::move(init)) {
    if (colors_.size() != static_cast<std::size_t>(g.num_vertices()))
      throw std::invalid_argument("ProcessEngine: init size != num_vertices");
    k_ = rule_.num_counters();
    if (k_ < 0 || k_ > kMaxCounters)
      throw std::invalid_argument("ProcessEngine: rule needs 0..32 counters");
    num_colors_ = rule_.num_colors();
    const std::uint32_t mis_counters = rule_.mis_counters();
    if (k_ < kMaxCounters && (mis_counters >> k_) != 0)
      throw std::invalid_argument("ProcessEngine: an MIS counter the rule does not have");
    // build() sums two counters per 64-bit word, which is exact while
    // every counter fits a Vertex: n - 1 neighbors of the largest
    // contribution must.
    const std::int64_t max_degree = std::max<std::int64_t>(g.num_vertices() - 1, 0);
    for (int c = 0; c < num_colors_; ++c) {
      bool heard_as_mis = false;
      for (int j = 0; j < k_; ++j) {
        const Vertex d = rule_.contribution(static_cast<Color>(c), j);
        if (d < 0) throw std::invalid_argument("ProcessEngine: negative rule contribution");
        if (d * max_degree > std::numeric_limits<Vertex>::max())
          throw std::invalid_argument("ProcessEngine: rule contribution overflows a counter");
        heard_as_mis |= d > 0 && ((mis_counters >> j) & 1u) != 0;
      }
      if (heard_as_mis != static_cast<bool>(rule_.in_mis(static_cast<Color>(c))))
        throw std::invalid_argument(
            "ProcessEngine: a color must contribute to an MIS counter exactly when it "
            "is in the MIS");
    }
    const std::size_t n = colors_.size();
    changed_ = std::make_unique_for_overwrite<Vertex[]>(n);
    changed_to_ = std::make_unique_for_overwrite<Color[]>(n);
    touched_ = std::make_unique_for_overwrite<Vertex[]>(n + 1);
    build();
  }

  // --- stepping ------------------------------------------------------------

  // One synchronous round: every scheduled vertex transitions against the
  // frozen end-of-round state; counters, worklist, and aggregates are
  // patched in O(|A_t| + sum deg(changed)). Advances round() by one.
  void step() {
    decide(worklist_.items(), round_ + 1);
    // round_ advances before apply so that any parked vertex materialized
    // during the commit lands on its orbit value for the round being
    // committed (colors_ always holds end-of-round_ state).
    ++round_;
    apply();
  }

  // Daemon primitive: transitions exactly `chosen` (each must currently be
  // scheduled — std::logic_error otherwise), simultaneously against the
  // frozen state, drawing coins for logical time `t`. Does NOT advance
  // round(); the caller owns the schedule's notion of time. Duplicate
  // entries are transitioned once.
  void apply_transitions(std::span<const Vertex> chosen, std::int64_t t) {
    chosen_unique_.assign(chosen.begin(), chosen.end());
    std::sort(chosen_unique_.begin(), chosen_unique_.end());
    chosen_unique_.erase(std::unique(chosen_unique_.begin(), chosen_unique_.end()),
                         chosen_unique_.end());
    for (Vertex u : chosen_unique_) {
      if (u < 0 || u >= graph_.num_vertices())
        throw std::logic_error(
            "ProcessEngine: transition requested for a non-scheduled vertex");
      // A parked vertex is logically scheduled; bring its stored color up
      // to date before it transitions (the commit unparks it).
      if constexpr (kFastForward) {
        if (fast_forwarded(u)) refresh_all({&u, 1});
      }
      if ((flags_[static_cast<std::size_t>(u)] & kScheduledBit) == 0)
        throw std::logic_error(
            "ProcessEngine: transition requested for a non-scheduled vertex");
    }
    decide(chosen_unique_, t);
    apply();
  }

  // Fault-injection / test hook: overwrite one vertex's color, keeping every
  // counter, worklist entry, and aggregate consistent in O(deg(u)). Counts
  // as a transient fault, not a round. Throws std::out_of_range on a bad
  // vertex and std::invalid_argument on a color outside the rule's range.
  void force_color(Vertex u, Color c) {
    if (u < 0 || u >= graph_.num_vertices())
      throw std::out_of_range("force_color: vertex out of range");
    if (static_cast<int>(raw(c)) >= num_colors_)
      throw std::invalid_argument("force_color: color out of range");
    // A fault is a re-activation point: materialize u first so the
    // comparison (and the commit's prev-color accounting) sees the logical
    // state, not the color u parked with.
    if constexpr (kFastForward) {
      if (fast_forwarded(u)) refresh_all({&u, 1});
    }
    if (colors_[static_cast<std::size_t>(u)] == c) return;
    changed_[0] = u;
    changed_to_[0] = c;
    num_changed_ = 1;
    apply();
  }

  // --- stable-periodic fast-forward ----------------------------------------

  // Enables/disables parking (FastForwardRule rules only; a no-op
  // otherwise). On by default for eligible rules. Turning it off
  // materializes every parked vertex, so the engine is back to plain
  // dense-equivalent sparse stepping with identical state.
  void set_fast_forward(bool on) {
    if constexpr (kFastForward) {
      if (on == fast_forward_) return;
      fast_forward_ = on;
      // On: park every eligible member of the live worklist. Off: the flag
      // is already down, so the materialized vertices do not re-park.
      if (on)
        refresh_all(worklist_.items());
      else
        sync_fast_forward();
    } else {
      (void)on;
    }
  }
  [[nodiscard]] bool fast_forward_enabled() const {
    if constexpr (kFastForward) return fast_forward_;
    return false;
  }
  // Number of parked vertices (0 for non-fast-forward rules).
  [[nodiscard]] Vertex num_fast_forwarded() const { return num_parked_; }
  // Whether u is currently parked (then it is scheduled but off the live
  // worklist). Always false for non-ff rules.
  [[nodiscard]] bool fast_forwarded(Vertex u) const {
    return (flags_[static_cast<std::size_t>(u)] & kParkBit) != 0;
  }
  // Materializes every parked vertex (stored colors become exact for the
  // current round) without disabling the optimization: each re-parks on
  // its current color. Exact-state accessors call this; it scans the flags
  // in O(n) while anything is parked and is free otherwise.
  void sync_fast_forward() const {
    if constexpr (kFastForward) {
      if (num_parked_ == 0) return;
      auto* self = const_cast<ProcessEngine*>(this);
      self->num_touched_ = 0;
      for (Vertex u = 0; u < graph_.num_vertices(); ++u)
        if (fast_forwarded(u)) self->touch(u);
      self->drain();
    }
  }

  // --- state queries -------------------------------------------------------

  [[nodiscard]] std::int64_t round() const { return round_; }
  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const Rule& rule() const { return rule_; }

  // Raw color values run over [0, num_colors()).
  [[nodiscard]] int num_colors() const { return num_colors_; }

  // Exact-state accessors. With fast-forward engaged, the stored color of a
  // parked vertex lags at the round it parked in, so these materialize what
  // they expose before returning (O(n) for the bulk views while anything
  // is parked, O(1) / O(deg) for the per-vertex ones; zero-cost for
  // non-fast-forward rules).
  [[nodiscard]] const std::vector<Color>& colors() const {
    sync_fast_forward();
    return colors_;
  }
  Color color(Vertex u) const {
    if constexpr (kFastForward) {
      if (fast_forwarded(u)) const_cast<ProcessEngine*>(this)->refresh_all({&u, 1});
    }
    return colors_[static_cast<std::size_t>(u)];
  }

  // Incrementally maintained neighbor counter j of u. Parked neighbors of u
  // are materialized first, so the value is the exact dense-semantics one.
  // (While a neighbor is parked, only the counter components the rule's
  // output projection declares invariant are maintained; the accessor
  // restores the rest on demand.)
  [[nodiscard]] Vertex counter(Vertex u, int j) const {
    return counters(u)[static_cast<std::size_t>(j)];
  }
  const Vertex* counters(Vertex u) const {
    if constexpr (kFastForward) {
      if (num_parked_ > 0) const_cast<ProcessEngine*>(this)->sync_neighbors(u);
    }
    return cnt_ptr(u);
  }

  // Number of vertices currently holding color c (histogram-backed; syncs
  // the parked vertices first, so O(n) while any is parked).
  [[nodiscard]] Vertex color_count(Color c) const {
    sync_fast_forward();
    return hist_[static_cast<std::size_t>(raw(c))];
  }
  // The raw histogram summed over the colors `pred` accepts, without
  // materializing parked orbits — O(num_colors). Individual entries may be
  // stale under fast-forward, but a sum over a set of colors closed under
  // every declared orbit (e.g. black0 + black1 for the 3-state family) is
  // exact, which is what the hot per-round accounting reads.
  template <typename Pred>
  [[nodiscard]] Vertex raw_color_count_if(Pred pred) const {
    Vertex count = 0;
    for (int c = 0; c < num_colors_; ++c)
      if (pred(static_cast<Color>(c))) count += hist_[static_cast<std::size_t>(c)];
    return count;
  }

  // --- worklist ------------------------------------------------------------

  [[nodiscard]] bool scheduled(Vertex u) const {
    return (flags_[static_cast<std::size_t>(u)] & kScheduledBit) != 0;
  }
  // Logical scheduled count: live worklist plus parked vertices (parked
  // orbits are scheduled every round by declaration).
  [[nodiscard]] Vertex num_scheduled() const { return worklist_.size() + num_parked_; }
  // The LIVE worklist only — under fast-forward, parked vertices are
  // excluded (that exclusion is the optimization). Logical queries should
  // use num_scheduled()/scheduled_set().
  [[nodiscard]] const VertexWorklist& worklist() const { return worklist_; }
  // Ascending order — what a dense seed-semantics scan would produce.
  // Includes the parked vertices, whose scheduled flags stay set.
  [[nodiscard]] std::vector<Vertex> scheduled_set() const {
    if (num_parked_ == 0) return worklist_.sorted();
    return select([this](Vertex u) { return scheduled(u); });
  }

  // Ascending list of the vertices satisfying `pred` (O(n) scan), e.g. the
  // per-flag vertex sets: active, stable black, unstable.
  template <typename Pred>
  std::vector<Vertex> select(Pred pred) const {
    std::vector<Vertex> out;
    for (Vertex u = 0; u < graph_.num_vertices(); ++u)
      if (pred(u)) out.push_back(u);
    return out;
  }

  // --- paper bookkeeping ---------------------------------------------------

  bool active(Vertex u) const {
    return (flags_[static_cast<std::size_t>(u)] & kActiveBit) != 0;
  }
  bool stable_black(Vertex u) const {
    return (flags_[static_cast<std::size_t>(u)] & kStableBlackBit) != 0;
  }
  // u ∈ V_t: not covered by the closed neighborhood of any stable black.
  // The first coverage read builds it in O(n + m); the engine maintains it
  // from then on.
  bool unstable(Vertex u) const { return coverage()[static_cast<std::size_t>(u)] == 0; }

  // |A_t|, violation count, |I_t|, |V_t| — O(1), maintained incrementally
  // (the seed implementations rescanned O(n + m) per query); |V_t| after
  // the coverage build its first read pays.
  Vertex num_active() const { return num_active_; }
  Vertex num_violations() const { return num_violations_; }
  Vertex num_stable_black() const { return num_stable_black_; }
  Vertex num_unstable() const {
    coverage();
    return num_unstable_;
  }

  // Stabilized ⟺ no MIS violation remains (for the 2-state family this
  // coincides with A_t = ∅).
  bool stabilized() const { return num_violations_ == 0; }

 private:
  static constexpr std::uint8_t kScheduledBit = 1;
  static constexpr std::uint8_t kActiveBit = 2;
  static constexpr std::uint8_t kViolatingBit = 4;
  static constexpr std::uint8_t kStableBlackBit = 8;
  // Set while u is on the touched list, from its touch to its refresh in
  // drain() (never outside one); not a predicate flag.
  static constexpr std::uint8_t kTouchedBit = 16;
  // Set while u is parked (fast-forward only); not a predicate flag.
  static constexpr std::uint8_t kParkBit = 32;

  // The counter patch's memory schedule (docs/architecture.md, "Per-round
  // bookkeeping without coin-driven branches", has the measurements):
  // neighbors per crossing mask, one bit of a std::uint64_t each; how many
  // changes ahead apply() prefetches a change's adjacency row and its
  // first neighbors' counter rows; and how many neighbors that is.
  static constexpr std::size_t kPatchBlock = 64;
  static constexpr std::size_t kRowPrefetchAhead = 8;
  static constexpr std::size_t kCounterPrefetchAhead = 4;
  static constexpr std::size_t kCounterPrefetchNeighbors = 8;

  static constexpr std::uint8_t raw(Color c) { return static_cast<std::uint8_t>(c); }
  static constexpr Vertex bit(std::uint8_t f, std::uint8_t mask) { return (f & mask) != 0; }

  // Whether a scheduled vertex of color c and hearing h may park: the rule
  // declares an orbit there and c already is the orbit's color this round,
  // so evaluating the orbit at any later round gives the exact color.
  bool parks(Vertex u, Color c, Heard h) const {
    if constexpr (kFastForward) {
      return fast_forward_ && rule_.fast_forwardable(c, h) &&
             rule_.orbit_color(u, c, round_) == c;
    } else {
      (void)u;
      (void)c;
      (void)h;
      return false;
    }
  }

  // Phase 1: compute next colors for `items` against the frozen state into
  // the change list. `items` must contain currently valid, duplicate-free
  // vertices. Every vertex is stored one past the live end of the list,
  // which advances only if its color changes, so no step branches on the
  // coin.
  void decide(std::span<const Vertex> items, std::int64_t t) {
    std::size_t len = 0;
    for (const Vertex u : items) {
      const Color cur = colors_[static_cast<std::size_t>(u)];
      const Color next = rule_.transition(u, cur, heard(u), t);
      // Guard the histogram/counter indexing against a buggy rule (user
      // automata are extension points): fail loudly instead of corrupting.
      if (static_cast<int>(raw(next)) >= num_colors_)
        throw std::logic_error("ProcessEngine: rule produced a color out of range");
      changed_[len] = u;
      changed_to_[len] = next;
      len += static_cast<std::size_t>(next != cur);
    }
    num_changed_ = len;
  }

  // Phase 2: commit the change list, patch counters of N(changed), and
  // refresh flags/worklist/aggregates for the changed vertices and the
  // neighbors whose hearing changed. Past the cache a patch waits on its
  // row and on one counter line per neighbor, so the loop prefetches both
  // ahead of the patch that reads them.
  void apply() {
    num_touched_ = 0;
    for (std::size_t i = 0; i < num_changed_; ++i) {
      if (i + kRowPrefetchAhead < num_changed_)
        __builtin_prefetch(graph_.neighbors(changed_[i + kRowPrefetchAhead]).data());
      if (i + kCounterPrefetchAhead < num_changed_)
        prefetch_counters(changed_[i + kCounterPrefetchAhead]);
      const Vertex u = changed_[i];
      const std::size_t su = static_cast<std::size_t>(u);
      // A fault or a daemon commit may hit a vertex that its own
      // materialization re-parked. Unpark it first, or the drain below
      // would materialize it again and overwrite the committed color.
      if constexpr (kFastForward) {
        if (fast_forwarded(u)) unpark(u);
      }
      const Color prev = colors_[su];
      const Color next = changed_to_[i];
      --hist_[raw(prev)];
      ++hist_[raw(next)];
      colors_[su] = next;
      touch(u);
      patch_neighbors(u, prev, next);
    }
    drain();
  }

  // Brings the counter rows of u's first kCounterPrefetchNeighbors
  // neighbors toward the cache. The index is clamped to the row, so the
  // loop has a fixed trip and reads nothing past u's row; an empty row has
  // nothing to fetch.
  void prefetch_counters(Vertex u) const {
    const std::span<const Vertex> row = graph_.neighbors(u);
    if (row.empty()) return;
    const std::size_t last = row.size() - 1;
    for (std::size_t i = 0; i < kCounterPrefetchNeighbors; ++i)
      __builtin_prefetch(cnt_ptr(row[std::min(i, last)]), 1);
  }

  // Moves u's contribution to its neighbors' counters from color `prev` to
  // `next`, touching each neighbor one of whose counters crosses zero — the
  // only patches that change what it hears. Only the counters whose
  // contribution differs are patched (at most 2 for one-hot emission
  // rules). Counters never go negative, so counter j moved by d crosses
  // zero exactly when its old value is d < 0 ? -d : 0. One moved counter
  // (every change of a one-counter rule) and two (3-state's white <->
  // black1, stone age's black0 <-> black1) have loops of their own; more
  // take the general loop over the per-counter arrays.
  void patch_neighbors(Vertex u, Color prev, Color next) {
    int nz = 0;
    int js[kMaxCounters];
    Vertex ds[kMaxCounters];
    Vertex zs[kMaxCounters];
    for (int j = 0; j < k_; ++j) {
      const Vertex d = rule_.contribution(next, j) - rule_.contribution(prev, j);
      if (d != 0) {
        js[nz] = j;
        ds[nz] = d;
        zs[nz] = d < 0 ? -d : 0;
        ++nz;
      }
    }
    if (nz == 0) return;
    const std::span<const Vertex> row = graph_.neighbors(u);
    const std::size_t k = static_cast<std::size_t>(k_);
    if (nz == 1) {
      Vertex* col = counters_.data() + js[0];
      const Vertex d = ds[0], z = zs[0];
      patch_blocks(row, [=](Vertex v) {
        Vertex& c = col[static_cast<std::size_t>(v) * k];
        const bool crossed = c == z;
        c += d;
        return crossed;
      });
    } else if (nz == 2) {
      Vertex* col0 = counters_.data() + js[0];
      Vertex* col1 = counters_.data() + js[1];
      const Vertex d0 = ds[0], z0 = zs[0], d1 = ds[1], z1 = zs[1];
      patch_blocks(row, [=](Vertex v) {
        const std::size_t at = static_cast<std::size_t>(v) * k;
        const bool crossed = (col0[at] == z0) | (col1[at] == z1);
        col0[at] += d0;
        col1[at] += d1;
        return crossed;
      });
    } else {
      Vertex* counters = counters_.data();
      patch_blocks(row, [&](Vertex v) {
        Vertex* base = counters + static_cast<std::size_t>(v) * k;
        bool crossed = false;
        for (int x = 0; x < nz; ++x) {
          Vertex& c = base[js[x]];
          crossed |= c == zs[x];
          c += ds[x];
        }
        return crossed;
      });
    }
  }

  // Runs `patch` (which moves v's counters and says whether one crossed
  // zero) over `row` in blocks of kPatchBlock neighbors with no branch per
  // neighbor: bit i of the block's mask records neighbor i's crossing, and
  // the set bits are touched afterwards in row order, so the touched list
  // is the one a per-neighbor branch would build. Whether a patch crosses
  // depends on the neighbor's other neighbors, which a predictor cannot
  // see, and a branch on it can only resolve once the counter's load
  // returns; the mask lets the loads of a block overlap.
  template <typename Patch>
  void patch_blocks(std::span<const Vertex> row, Patch patch) {
    for (std::size_t b = 0; b < row.size(); b += kPatchBlock) {
      const std::size_t len = std::min(row.size() - b, kPatchBlock);
      // Each crossing enters at the top and moves down one bit per later
      // neighbor (a constant shift, where `x << i` would shift by a
      // register), so after the shift below bit i is neighbor b + i.
      std::uint64_t crossed = 0;
      for (std::size_t i = b; i < b + len; ++i)
        crossed = (crossed >> 1) | (static_cast<std::uint64_t>(patch(row[i])) << 63);
      for (crossed >>= kPatchBlock - len; crossed != 0; crossed &= crossed - 1)
        touch(row[b + static_cast<std::size_t>(std::countr_zero(crossed))]);
    }
  }

  // Appends u to the touched list unless its touched bit is already set.
  // The store always lands one past the live end (hence the list's spare
  // slot); only the length update depends on the bit.
  void touch(Vertex u) {
    std::uint8_t& f = flags_[static_cast<std::size_t>(u)];
    touched_[num_touched_] = u;
    num_touched_ += static_cast<std::size_t>((f & kTouchedBit) == 0);
    f |= kTouchedBit;
  }

  // Refreshes every touched vertex once, in two passes. The first
  // materializes every parked vertex on the list; a materialization's patch
  // may append further vertices, parked ones included, which the same
  // index-based loop reaches in turn. After it no counter moves, so the
  // second pass refreshes each vertex against its final hearing and clears
  // its touched bit in the same store. (Refreshing before a later parked
  // neighbor materialized would leave a flag that the neighbor's crossing
  // could not correct: the vertex's touched bit was still set.)
  void drain() {
    if constexpr (kFastForward) {
      if (num_parked_ > 0) {
        for (std::size_t i = 0; i < num_touched_; ++i)
          if (fast_forwarded(touched_[i])) materialize(touched_[i]);
      }
    }
    for (std::size_t i = 0; i < num_touched_; ++i) refresh(touched_[i]);
  }

  // Refreshes `us` and whatever their materializations touch, outside a
  // round: the exact-state accessors, faults and fast-forward toggles. The
  // touched list copies `us` before any refresh edits the set it came from.
  void refresh_all(std::span<const Vertex> us) {
    num_touched_ = 0;
    for (const Vertex u : us) touch(u);
    drain();
  }

  // Raw (non-materializing) counter row — the view every internal phase
  // reads; live vertices' rows are exact in every component a rule
  // predicate can observe (the fast-forward output-projection contract).
  const Vertex* cnt_ptr(Vertex u) const {
    return counters_.data() +
           static_cast<std::size_t>(u) * static_cast<std::size_t>(k_);
  }
  Heard heard(Vertex u) const { return Heard::of(cnt_ptr(u), k_); }

  // u's predicate flags (never kTouchedBit): the rule's scheduled and
  // active, and the MIS pair derived from its membership (see the policy
  // interface above).
  std::uint8_t compute_flags(Color c, Heard h) const {
    const bool mis = rule_.in_mis(c);
    const bool hears_mis = (h.bits() & rule_.mis_counters()) != 0;
    unsigned f = static_cast<unsigned>(rule_.scheduled(c, h));
    f |= static_cast<unsigned>(rule_.active(c, h)) << 1;
    f |= static_cast<unsigned>(mis == hears_mis) << 2;
    f |= static_cast<unsigned>(mis && !hears_mis) << 3;
    return static_cast<std::uint8_t>(f);
  }

  // Re-evaluates u's predicate flags, clears its touched bit, and patches
  // the worklist, aggregates, and (once built) the stable-black coverage
  // counts. The aggregates move by flag differences; only a worklist edit
  // or a stable-black change (the coverage walk) branches.
  //
  // Under fast-forward this is also the entry point: a live scheduled u
  // that parks() is removed from the live worklist with its kScheduledBit
  // — and all predicate flags, frozen by the orbit's constancy promise —
  // left set, so the O(1) aggregates stay the logical values. A vertex that
  // drain()'s first pass materialized is live again by now.
  void refresh(Vertex u) {
    const std::size_t su = static_cast<std::size_t>(u);
    const Color c = colors_[su];
    const Heard h = heard(u);
    const std::uint8_t before = flags_[su];
    std::uint8_t now = compute_flags(c, h);
    if ((now ^ before) & kScheduledBit) {
      if (now & kScheduledBit)
        worklist_.insert(u);
      else
        worklist_.erase(u);
    }
    num_active_ += bit(now, kActiveBit) - bit(before, kActiveBit);
    num_violations_ += bit(now, kViolatingBit) - bit(before, kViolatingBit);
    num_stable_black_ += bit(now, kStableBlackBit) - bit(before, kStableBlackBit);
    if (((now ^ before) & kStableBlackBit) && coverage_built_)
      cover(u, (now & kStableBlackBit) ? 1 : -1);
    if ((now & kScheduledBit) && parks(u, c, h)) {
      worklist_.erase(u);
      now |= kParkBit;
      ++num_parked_;
    }
    flags_[su] = now;
  }

  // Back onto the live worklist; kScheduledBit is still set (orbit
  // invariant).
  void unpark(Vertex u) {
    flags_[static_cast<std::size_t>(u)] &= static_cast<std::uint8_t>(~kParkBit);
    --num_parked_;
    worklist_.insert(u);
  }

  // Unparks u, advances its stored color to the current round by one orbit
  // evaluation, and patches the histogram and neighbor counters if the
  // orbit moved; the neighbors whose hearing the move changed join the
  // touched list. Its refresh in drain()'s second pass parks it again if
  // it is still on an orbit. Only reached under kFastForward.
  void materialize(Vertex u) {
    const std::size_t su = static_cast<std::size_t>(u);
    unpark(u);
    const Color prev = colors_[su];
    const Color now = rule_.orbit_color(u, prev, round_);
    if (now == prev) return;
    if (static_cast<int>(raw(now)) >= num_colors_)
      throw std::logic_error("ProcessEngine: orbit produced a color out of range");
    --hist_[raw(prev)];
    ++hist_[raw(now)];
    colors_[su] = now;
    patch_neighbors(u, prev, now);
  }

  // Materializes the parked neighbors of u (exact-counter accessor path).
  void sync_neighbors(Vertex u) {
    num_touched_ = 0;
    for (Vertex v : graph_.neighbors(u))
      if (fast_forwarded(v)) touch(v);
    drain();
  }

  // The stable-black coverage counts, built on first use.
  const std::vector<Vertex>& coverage() const {
    if (!coverage_built_) const_cast<ProcessEngine*>(this)->build_coverage();
    return covered_;
  }

  // O(n + m) derivation of the coverage counts and |V_t| from the
  // stable-black flags (exact for parked vertices too: their flags are
  // frozen by the orbit's constancy promise).
  void build_coverage() {
    const Vertex n = graph_.num_vertices();
    covered_.assign(static_cast<std::size_t>(n), 0);
    Vertex covered = 0;
    for (Vertex u = 0; u < n; ++u) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (flags_[su] & kStableBlackBit) {
        covered += covered_[su]++ == 0;
        for (const Vertex v : graph_.neighbors(u))
          covered += covered_[static_cast<std::size_t>(v)]++ == 0;
      }
    }
    num_unstable_ = n - covered;
    coverage_built_ = true;
  }

  // Adds d (+1 when u became a stable black, -1 when it stopped being one)
  // to the coverage counts of N+[u], and the resulting change in the number
  // of uncovered vertices to num_unstable_.
  void cover(Vertex u, Vertex d) {
    const auto bump = [d](Vertex& c) {
      const Vertex was_zero = c == 0;
      c += d;
      return static_cast<Vertex>(c == 0) - was_zero;
    };
    Vertex unstable = bump(covered_[static_cast<std::size_t>(u)]);
    for (Vertex v : graph_.neighbors(u))
      unstable += bump(covered_[static_cast<std::size_t>(v)]);
    num_unstable_ += unstable;
  }

  // Full O(n + m) derivation of every piece of engine state from the
  // initial colors, at construction: histogram, counters, flags (the park
  // bits included), worklist and aggregates. Coverage waits for its first
  // reader.
  //
  // Counters come from sequential adjacency sweeps pulling the neighbors'
  // contributions (Graph::neighbor_sums), two counters per sweep: counter
  // j in the low 32 bits of a 64-bit sum and counter j + 1 in the high
  // ones, so k counters take ceil(k/2) sweeps. Both lanes are exact, since
  // every counter fits a Vertex (the constructor checks it) and a carry
  // out of the low lane cancels in the row's difference of running totals.
  // One pass over the vertices then sets the flags, aggregates and
  // histogram and parks the scheduled vertices that parks() accepts; the
  // worklist is assigned from the flags.
  void build() {
    const Vertex n = graph_.num_vertices();
    const std::size_t k = static_cast<std::size_t>(k_);
    std::uint8_t max_color = 0;
    for (const Color c : colors_) max_color = std::max(max_color, raw(c));
    if (n > 0 && static_cast<int>(max_color) >= num_colors_)
      throw std::invalid_argument("ProcessEngine: init color out of range");
    const std::size_t nc = static_cast<std::size_t>(num_colors_);
    counters_.resize(static_cast<std::size_t>(n) * k);
    for (std::size_t j = 0; j < k; j += 2) {
      const bool pair = j + 1 < k;
      // adds[c]: what a neighbor of raw color c adds to counter j (low
      // lane) and to counter j + 1 (high lane).
      std::vector<std::uint64_t> adds(nc);
      for (std::size_t c = 0; c < nc; ++c) {
        const Color color = static_cast<Color>(c);
        const int lo = static_cast<int>(j);
        adds[c] = static_cast<std::uint64_t>(rule_.contribution(color, lo));
        if (pair) adds[c] |= static_cast<std::uint64_t>(rule_.contribution(color, lo + 1)) << 32;
      }
      Vertex* col = counters_.data() + j;
      graph_.neighbor_sums(
          [&](Vertex v) { return adds[raw(colors_[static_cast<std::size_t>(v)])]; },
          [&](Vertex u, std::uint64_t sum) {
            Vertex* row = col + static_cast<std::size_t>(u) * k;
            row[0] = narrow_cast<Vertex>(sum & 0xffffffffu);
            if (pair) row[1] = narrow_cast<Vertex>(sum >> 32);
          });
    }
    hist_.assign(nc, 0);
    flags_.resize(static_cast<std::size_t>(n));
    Vertex active = 0, violations = 0, stable_black = 0, num_parked = 0;
    for (Vertex u = 0; u < n; ++u) {
      const std::size_t su = static_cast<std::size_t>(u);
      const Color c = colors_[su];
      const Heard h = heard(u);
      ++hist_[raw(c)];
      std::uint8_t f = compute_flags(c, h);
      if ((f & kScheduledBit) && parks(u, c, h)) {
        f |= kParkBit;
        ++num_parked;
      }
      flags_[su] = f;
      active += bit(f, kActiveBit);
      violations += bit(f, kViolatingBit);
      stable_black += bit(f, kStableBlackBit);
    }
    num_active_ = active;
    num_violations_ = violations;
    num_stable_black_ = stable_black;
    num_parked_ = num_parked;
    worklist_.assign(flags_, kScheduledBit | kParkBit, kScheduledBit);
  }

  Graph graph_;  // a handle: copies share the storage
  Rule rule_;
  std::vector<Color> colors_;
  std::vector<Vertex> counters_;  // flat [u * k_ + j]
  std::vector<Vertex> hist_;      // vertices per raw color value
  std::vector<std::uint8_t> flags_;
  VertexWorklist worklist_;
  // Stable blacks in N+[u], empty until coverage() first builds it.
  std::vector<Vertex> covered_;
  bool coverage_built_ = false;

  // Fast-forward state (0 / unused unless the rule satisfies
  // FastForwardRule). Invariant: the worklist holds exactly the scheduled
  // vertices without kParkBit, num_parked_ counts those with it, and a
  // parked vertex holds in colors_ its orbit color of the round it parked
  // in.
  Vertex num_parked_ = 0;
  bool fast_forward_ = kFastForward;

  // Scratch for decide/apply, sized at construction and written before it
  // is read: the change list (vertices and their next colors; at most n
  // entries) and the touched list (at most n entries plus the spare slot
  // touch() stores into). Membership in the touched list is kTouchedBit.
  std::unique_ptr<Vertex[]> changed_;
  std::unique_ptr<Color[]> changed_to_;
  std::size_t num_changed_ = 0;
  std::unique_ptr<Vertex[]> touched_;
  std::size_t num_touched_ = 0;
  std::vector<Vertex> chosen_unique_;  // apply_transitions's sorted input

  std::int64_t round_ = 0;
  int k_ = 0;
  int num_colors_ = 0;
  Vertex num_active_ = 0;
  Vertex num_violations_ = 0;
  Vertex num_stable_black_ = 0;
  Vertex num_unstable_ = 0;
};

}  // namespace ssmis
