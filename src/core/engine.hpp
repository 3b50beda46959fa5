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
// the worklist, and the aggregates; the Rule supplies only the paper's
// transition table and predicates (see `ProcessRule` below). Five rules
// cover every process: the 2-state rule (with its bias sources it also runs
// the ablation, priority, daemon and matching workloads), 3-state, 3-color,
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
#include <concepts>
#include <cstdint>
#include <iterator>
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
  // Empties the set and resizes the universe to [0, n).
  void reset(Vertex n);

  // Makes the set exactly {u : flags[u] & bit} over the universe
  // [0, flags.size()), in ascending order, without a branch per vertex.
  void assign(std::span<const std::uint8_t> flags, std::uint8_t bit);

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

// The policy interface. A rule is a value type describing one process:
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
//   bool active(Color c, Heard h) const;        // u ∈ A_t
//   bool violating(Color c, Heard h) const;     // MIS violation
//   bool stable_black(Color c, Heard h) const;  // u ∈ I_t
//                                      // the paper's bookkeeping predicates;
//                                      // every rule is an MIS process, so
//                                      // every rule defines them
//
// A rule may also provide `void end_round(int64_t t)` — a hook run once per
// synchronous round after the colors were committed (the 3-color process
// steps its logarithmic switch there).
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

// active/violating/stable_black(c, h) — the paper's bookkeeping predicates.
template <typename R>
concept RuleHasMisPredicates =
    RuleHasColor<R> && requires(const R r, typename R::Color c, Heard h) {
      { r.active(c, h) } -> std::convertible_to<bool>;
      { r.violating(c, h) } -> std::convertible_to<bool>;
      { r.stable_black(c, h) } -> std::convertible_to<bool>;
    };

template <typename R>
concept ProcessRule = RuleHasColor<R> && RuleHasShape<R> && RuleHasContribution<R> &&
                      RuleHasScheduling<R> && RuleHasTransition<R> &&
                      RuleHasMisPredicates<R>;

// Optional once-per-round hook, run after the colors were committed.
template <typename R>
concept RuleHasEndRoundHook = requires(R& r, std::int64_t t) {
  r.end_round(t);
};

// Optional stable-periodic fast-forward extension (docs/architecture.md,
// "Stable-periodic fast-forward"). A rule that implements it declares, for
// some (color, hearing) pairs, that the vertex's future orbit is
// AUTONOMOUS: as long as what it hears stays put, its color at any later
// round T is a pure function of (entry color, hearing, entry round, T) plus
// the counter-based coins — and the rule promises that along the orbit
//
//   * every engine predicate (scheduled, active, violating, stable_black)
//     is constant, with the scheduled predicate TRUE (a quiescent vertex is
//     already off the worklist for free), and so is the rule's MIS
//     membership `in_mis(c)` where it has one (EngineProcess counts |B_t|
//     from the raw histogram, which a parked orbit leaves at its entry
//     color);
//   * the only counter components of OTHER vertices that the orbit's color
//     changes would move are components no live vertex's predicates or
//     transition can observe while the mover is on its orbit (the "output
//     projection" contract: the MIS-relevant projection of the orbit is
//     constant, and neighbors can only hear the projection).
//
// Under that contract the engine parks such vertices in a periodic set off
// the hot worklist, leaves their stored color at the entry round, and
// re-materializes them by ONE orbit_color evaluation exactly when their
// hearing changes (a neighbor's color change moves one of their counters
// across zero), when a fault (force_color) hits them or changes their
// hearing, or when an exact-state query needs them — so trajectories and
// fingerprints are bit-identical to the dense semantics while
// near-stabilized rounds cost O(1).
//
//   bool fast_forwardable(Color c, Heard h) const;
//   Color orbit_color(Vertex u, Color c, Heard h,
//                     std::int64_t entry_round, std::int64_t now) const;
//       // the orbit color at round `now` >= entry_round, given the color
//       // held at the end of round `entry_round`; must cost O(1) (the
//       // implemented orbits are memoryless: the color at round T depends
//       // only on round-T coins), and must equal `c` when now == entry.
//
// Rules additionally declare `kOrbitPeriodHint` (the orbit period of the
// output projection; 1 for the memoryless re-randomizing orbits) for
// documentation and diagnostics.
template <typename R>
concept FastForwardRule =
    ProcessRule<R> && requires(const R r, typename R::Color c, Heard h, Vertex u,
                               std::int64_t t0, std::int64_t t1) {
      { r.fast_forwardable(c, h) } -> std::convertible_to<bool>;
      { r.orbit_color(u, c, h, t0, t1) } -> std::convertible_to<typename R::Color>;
    };

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
  static_assert(RuleHasMisPredicates<Rule>,
                "ProcessEngine<Rule>: Rule violates concept "
                "ssmis::RuleHasMisPredicates — it must provide const "
                "active/violating/stable_black(Color, Heard) -> bool");
  static_assert(ProcessRule<Rule>,
                "ProcessEngine<Rule>: Rule does not satisfy "
                "ssmis::ProcessRule (see the failed sub-concept above)");

 public:
  using Color = typename Rule::Color;
  // Rules satisfying FastForwardRule get stable-periodic fast-forward; for
  // everything else the machinery folds away at compile time (no periodic
  // set, no extra branches in refresh, accessors stay raw).
  static constexpr bool kFastForward = FastForwardRule<Rule>;
  static constexpr int kMaxCounters = 32;

  // `init` must have size g.num_vertices() and only colors with raw value
  // below rule.num_colors(). Throws std::invalid_argument otherwise, and on
  // a negative contribution (the zero-crossing test in patch_neighbors
  // relies on counters that never go negative). The engine keeps its own
  // handle on g: a Graph copy shares the storage, so g need not outlive it.
  ProcessEngine(const Graph& g, std::vector<Color> init, Rule rule)
      : graph_(g), rule_(std::move(rule)), colors_(std::move(init)) {
    if (colors_.size() != static_cast<std::size_t>(g.num_vertices()))
      throw std::invalid_argument("ProcessEngine: init size != num_vertices");
    k_ = rule_.num_counters();
    if (k_ < 0 || k_ > kMaxCounters)
      throw std::invalid_argument("ProcessEngine: rule needs 0..32 counters");
    num_colors_ = rule_.num_colors();
    for (int c = 0; c < num_colors_; ++c)
      for (int j = 0; j < k_; ++j)
        if (rule_.contribution(static_cast<Color>(c), j) < 0)
          throw std::invalid_argument("ProcessEngine: negative rule contribution");
    const std::size_t n = colors_.size();
    changed_ = std::make_unique_for_overwrite<Vertex[]>(n);
    changed_to_ = std::make_unique_for_overwrite<Color[]>(n);
    touched_ = std::make_unique_for_overwrite<Vertex[]>(n + 1);
    rebuild();
  }

  // --- stepping ------------------------------------------------------------

  // One synchronous round: every scheduled vertex transitions against the
  // frozen end-of-round state; counters, worklist, and aggregates are
  // patched in O(|A_t| + sum deg(changed)). Advances round() by one.
  void step() {
    const std::int64_t t = round_ + 1;
    decide(worklist_.items(), t);
    // round_ advances before apply so that any vertex materialized out of
    // the periodic set during the commit lands on its orbit value for the
    // round being committed (colors_ always holds end-of-round_ state).
    ++round_;
    apply();
    if constexpr (RuleHasEndRoundHook<Rule>) rule_.end_round(t);
  }

  // Daemon primitive: transitions exactly `chosen` (each must currently be
  // scheduled — std::logic_error otherwise), simultaneously against the
  // frozen state, drawing coins for logical time `t`. Does NOT advance
  // round() and does NOT run the rule's end-of-round hook; the caller owns
  // the schedule's notion of time. Duplicate entries are transitioned once.
  void apply_transitions(std::span<const Vertex> chosen, std::int64_t t) {
    chosen_unique_.assign(chosen.begin(), chosen.end());
    std::sort(chosen_unique_.begin(), chosen_unique_.end());
    chosen_unique_.erase(std::unique(chosen_unique_.begin(), chosen_unique_.end()),
                         chosen_unique_.end());
    for (Vertex u : chosen_unique_) {
      if (u < 0 || u >= graph_.num_vertices())
        throw std::logic_error(
            "ProcessEngine: transition requested for a non-scheduled vertex");
      // A fast-forwarded vertex is logically scheduled; bring its stored
      // color up to date before it transitions (round_ is frozen under a
      // daemon, so this is a bookkeeping no-op for parked orbits — there is
      // no synchronous time for them to have advanced along).
      if constexpr (kFastForward) {
        if (periodic_.contains(u)) refresh_all({&u, 1});
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
    // state, not the parked entry-round state.
    if constexpr (kFastForward) {
      if (periodic_.contains(u)) refresh_all({&u, 1});
    }
    if (colors_[static_cast<std::size_t>(u)] == c) return;
    changed_[0] = u;
    changed_to_[0] = c;
    num_changed_ = 1;
    apply();
  }

  // Re-derives worklist membership and aggregates from the (unchanged)
  // colors and counters. Call after mutating rule parameters that alter the
  // scheduling predicate (e.g. the beeping network's loss probability).
  // Fast-forwarded vertices are materialized first (a rule change may
  // invalidate the orbit declaration they entered under).
  void notify_rule_changed() {
    sync_fast_forward();
    rebuild();
  }

  // --- stable-periodic fast-forward ----------------------------------------

  // Enables/disables the periodic-set optimization (FastForwardRule rules
  // only; a no-op otherwise). On by default for eligible rules. Turning it
  // off materializes every parked vertex, so the engine is back to plain
  // dense-equivalent sparse stepping with identical state.
  void set_fast_forward(bool on) {
    if constexpr (kFastForward) {
      if (on == fast_forward_) return;
      fast_forward_ = on;
      // On: park every eligible member of the live worklist. Off: the flag
      // is already down, so the materialized vertices do not re-enter.
      refresh_all(on ? worklist_.items() : periodic_.items());
    } else {
      (void)on;
    }
  }
  [[nodiscard]] bool fast_forward_enabled() const {
    if constexpr (kFastForward) return fast_forward_;
    return false;
  }
  // Physical size of the periodic set (0 for non-fast-forward rules).
  [[nodiscard]] Vertex num_fast_forwarded() const {
    if constexpr (kFastForward) return periodic_.size();
    return 0;
  }
  // Whether u is currently parked in the periodic set (its live entry is in
  // `worklist() ∪ this`, never both). Always false for non-ff rules.
  [[nodiscard]] bool fast_forwarded(Vertex u) const {
    if constexpr (kFastForward) return periodic_.contains(u);
    (void)u;
    return false;
  }
  // Materializes every parked vertex (stored colors become exact for the
  // current round) without disabling the optimization — members re-enter
  // the periodic set with a fresh entry round. Exact-state accessors call
  // this; repeated calls per round are O(|periodic set|) no-ops.
  void sync_fast_forward() const {
    if constexpr (kFastForward) {
      if (periodic_.empty()) return;
      const_cast<ProcessEngine*>(this)->refresh_all(periodic_.items());
    }
  }

  // --- state queries -------------------------------------------------------

  [[nodiscard]] std::int64_t round() const { return round_; }
  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const Rule& rule() const { return rule_; }
  Rule& rule() { return rule_; }

  // Raw color values run over [0, num_colors()).
  [[nodiscard]] int num_colors() const { return num_colors_; }

  // Exact-state accessors. With fast-forward engaged, the stored color of a
  // parked vertex lags at its entry round, so these materialize what they
  // expose before returning (O(|periodic set|) for the bulk views, O(1) /
  // O(deg) for the per-vertex ones; zero-cost for non-fast-forward rules).
  [[nodiscard]] const std::vector<Color>& colors() const {
    sync_fast_forward();
    return colors_;
  }
  Color color(Vertex u) const {
    if constexpr (kFastForward) {
      if (periodic_.contains(u)) const_cast<ProcessEngine*>(this)->refresh_all({&u, 1});
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
      if (!periodic_.empty())
        const_cast<ProcessEngine*>(this)->sync_neighbors(u);
    }
    return cnt_ptr(u);
  }

  // Number of vertices currently holding color c (histogram-backed; syncs
  // the periodic set first, so O(|periodic set|) under fast-forward).
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
  // Logical scheduled count: live worklist plus fast-forwarded vertices
  // (parked orbits are scheduled every round by declaration).
  [[nodiscard]] Vertex num_scheduled() const {
    if constexpr (kFastForward) return worklist_.size() + periodic_.size();
    return worklist_.size();
  }
  // The LIVE worklist only — under fast-forward, parked vertices are
  // excluded (that exclusion is the optimization). Logical queries should
  // use num_scheduled()/scheduled_set().
  [[nodiscard]] const VertexWorklist& worklist() const { return worklist_; }
  // Ascending order — what a dense seed-semantics scan would produce.
  // Includes the fast-forwarded vertices.
  [[nodiscard]] std::vector<Vertex> scheduled_set() const {
    if constexpr (kFastForward) {
      if (!periodic_.empty()) {
        const std::vector<Vertex> live = worklist_.sorted();
        const std::vector<Vertex> parked = periodic_.sorted();
        std::vector<Vertex> out;
        out.reserve(live.size() + parked.size());
        std::merge(live.begin(), live.end(), parked.begin(), parked.end(),
                   std::back_inserter(out));
        return out;
      }
    }
    return worklist_.sorted();
  }

  // Ascending list of the vertices satisfying `pred` (O(n) scan) — the
  // backing for EngineProcess::black_set() and other per-flag vertex sets.
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
  // Set while u is on the touched list (never outside a refresh pass); not
  // a predicate flag.
  static constexpr std::uint8_t kTouchedBit = 16;

  static constexpr std::uint8_t raw(Color c) { return static_cast<std::uint8_t>(c); }
  static constexpr Vertex bit(std::uint8_t f, std::uint8_t mask) { return (f & mask) != 0; }

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
  // neighbors whose hearing changed.
  void apply() {
    num_touched_ = 0;
    for (std::size_t i = 0; i < num_changed_; ++i) {
      const Vertex u = changed_[i];
      const std::size_t su = static_cast<std::size_t>(u);
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

  // Moves u's contribution to its neighbors' counters from color `prev` to
  // `next`, touching each neighbor one of whose counters crosses zero — the
  // only patches that change what it hears. Only the counters whose
  // contribution differs are patched (at most 2 for one-hot emission
  // rules). Counters never go negative, so counter j moved by d crosses
  // zero exactly when its old value is d < 0 ? -d : 0. The crossing test is
  // a branch, not a flag: crossings are rare on sparse rows (13% of patches
  // on G(2^15, 8/n)) and almost absent on dense ones, so it predicts well
  // and skips the touch, the refresh and the touched-bit clear.
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
    // One patched counter (every change under a one-counter rule) loops
    // without the per-counter arrays: 14% off `sweep-mix` `solve_s` on a
    // 4-vCPU Xeon, whose dense rows patch many neighbors per change.
    if (nz == 1) {
      const std::size_t k = static_cast<std::size_t>(k_);
      Vertex* col = counters_.data() + js[0];
      const Vertex d = ds[0], z = zs[0];
      for (Vertex v : nbrs(u)) {
        Vertex& c = col[static_cast<std::size_t>(v) * k];
        const bool crossed = c == z;
        c += d;
        if (crossed) touch(v);
      }
      return;
    }
    for (Vertex v : nbrs(u)) {
      Vertex* base = counters_.data() +
                     static_cast<std::size_t>(v) * static_cast<std::size_t>(k_);
      bool crossed = false;
      for (int x = 0; x < nz; ++x) {
        Vertex& c = base[js[x]];
        crossed |= c == zs[x];
        c += ds[x];
      }
      if (crossed) touch(v);
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

  // Refreshes every touched vertex, then clears the touched bits. A refresh
  // can materialize a parked vertex whose patch touches further vertices —
  // hence the index-based loop; the bits stay set until every refresh is
  // done, so no vertex enters the list twice.
  void drain() {
    for (std::size_t i = 0; i < num_touched_; ++i) refresh(touched_[i]);
    for (std::size_t i = 0; i < num_touched_; ++i)
      flags_[static_cast<std::size_t>(touched_[i])] &= static_cast<std::uint8_t>(~kTouchedBit);
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

  // u's predicate flags (never kTouchedBit).
  std::uint8_t compute_flags(Color c, Heard h) const {
    unsigned f = static_cast<unsigned>(rule_.scheduled(c, h));
    f |= static_cast<unsigned>(rule_.active(c, h)) << 1;
    f |= static_cast<unsigned>(rule_.violating(c, h)) << 2;
    f |= static_cast<unsigned>(rule_.stable_black(c, h)) << 3;
    return static_cast<std::uint8_t>(f);
  }

  // Re-evaluates u's predicate flags and patches the worklist, aggregates,
  // and (once built) the stable-black coverage counts. The aggregates move
  // by flag differences; only a worklist edit or a stable-black change (the
  // coverage walk) branches.
  //
  // Under fast-forward this is also both the re-activation point (a parked
  // u is materialized before anything reads its flags or color) and the
  // entry point (a live scheduled u whose rule declares its current
  // configuration an autonomous orbit is parked: removed from the live
  // worklist with its kScheduledBit — and all predicate flags, frozen by
  // the orbit's constancy promise — left set, so the O(1) aggregates stay
  // the logical values).
  void refresh(Vertex u) {
    const std::size_t su = static_cast<std::size_t>(u);
    if constexpr (kFastForward) {
      if (periodic_.contains(u)) materialize(u);
    }
    const Color c = colors_[su];
    const Heard h = heard(u);
    const std::uint8_t before = flags_[su];
    const std::uint8_t now = compute_flags(c, h);
    flags_[su] = static_cast<std::uint8_t>(now | (before & kTouchedBit));
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
    if constexpr (kFastForward) {
      if (fast_forward_ && (now & kScheduledBit) && rule_.fast_forwardable(c, h)) {
        worklist_.erase(u);
        periodic_.insert(u);
        ff_entry_[su] = round_;
      }
    }
  }

  // Exit the periodic set: advance u's stored color to the current round by
  // one orbit evaluation, rejoin the live worklist, and patch the histogram
  // and neighbor counters if the orbit moved. The caller (refresh)
  // re-derives u's flags right after; the neighbors whose hearing the move
  // changed join the touched list. Only reached under kFastForward.
  void materialize(Vertex u) {
    const std::size_t su = static_cast<std::size_t>(u);
    periodic_.erase(u);
    worklist_.insert(u);  // kScheduledBit is still set — orbit invariant
    const Color prev = colors_[su];
    const Color now = rule_.orbit_color(u, prev, heard(u), ff_entry_[su], round_);
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
    for (Vertex v : nbrs(u))
      if (periodic_.contains(v)) touch(v);
    drain();
  }

  // Decode-aware neighbor view for the engine phases that walk rows
  // (patch, cover): the raw CSR span on plain graphs, a decode into this
  // engine's scratch on compressed graphs. The view is valid until the next
  // call; no phase walks a row while it holds another.
  std::span<const Vertex> nbrs(Vertex u) {
    return graph_.neighbors(u, nbr_scratch_);
  }

  // The stable-black coverage counts, built on first use.
  const std::vector<Vertex>& coverage() const {
    if (!coverage_built_) const_cast<ProcessEngine*>(this)->build_coverage();
    return covered_;
  }

  // O(n + m) derivation of the coverage counts and |V_t| from the
  // stable-black flags (exact for parked vertices too: their flags are
  // frozen by the orbit's constancy promise). Stable blacks' rows are read
  // in order: one pass over the payload on compressed graphs instead of a
  // row seek per stable black.
  void build_coverage() {
    const Vertex n = graph_.num_vertices();
    covered_.assign(static_cast<std::size_t>(n), 0);
    Vertex covered = 0;
    Graph::RowStream rows(graph_);
    for (Vertex u = 0; u < n; ++u) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (flags_[su] & kStableBlackBit) {
        covered += covered_[su]++ == 0;
        for (const Vertex v : rows.next(nbr_scratch_))
          covered += covered_[static_cast<std::size_t>(v)]++ == 0;
      } else {
        rows.skip();
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
    for (Vertex v : nbrs(u)) unstable += bump(covered_[static_cast<std::size_t>(v)]);
    num_unstable_ += unstable;
  }

  // Full O(n + m) derivation of every piece of engine state from the colors
  // (construction, and notify_rule_changed after a sync): histogram,
  // counters, flags, worklist and aggregates, plus the coverage counts once
  // a reader has built them. Each counter is one sequential adjacency sweep
  // pulling the neighbors' contributions (Graph::neighbor_sums); one pass
  // over the vertices then sets the flags, aggregates and histogram, and
  // one more builds the worklist from the flags.
  void rebuild() {
    const Vertex n = graph_.num_vertices();
    const std::size_t k = static_cast<std::size_t>(k_);
    std::uint8_t max_color = 0;
    for (const Color c : colors_) max_color = std::max(max_color, raw(c));
    if (n > 0 && static_cast<int>(max_color) >= num_colors_)
      throw std::invalid_argument("ProcessEngine: init color out of range");
    const std::size_t nc = static_cast<std::size_t>(num_colors_);
    counters_.resize(static_cast<std::size_t>(n) * k);
    for (std::size_t j = 0; j < k; ++j) {
      // adds[c]: what a neighbor of raw color c adds to counter j.
      std::vector<Vertex> adds(nc);
      for (std::size_t c = 0; c < nc; ++c)
        adds[c] = rule_.contribution(static_cast<Color>(c), static_cast<int>(j));
      graph_.neighbor_sums(
          [&](Vertex v) { return adds[raw(colors_[static_cast<std::size_t>(v)])]; },
          [&](Vertex u, std::int64_t sum) {
            counters_[static_cast<std::size_t>(u) * k + j] = narrow_cast<Vertex>(sum);
          });
    }
    hist_.assign(nc, 0);
    flags_.resize(static_cast<std::size_t>(n));
    Vertex active = 0, violations = 0, stable_black = 0;
    for (Vertex u = 0; u < n; ++u) {
      const std::size_t su = static_cast<std::size_t>(u);
      ++hist_[raw(colors_[su])];
      const std::uint8_t f = compute_flags(colors_[su], heard(u));
      flags_[su] = f;
      active += bit(f, kActiveBit);
      violations += bit(f, kViolatingBit);
      stable_black += bit(f, kStableBlackBit);
    }
    num_active_ = active;
    num_violations_ = violations;
    num_stable_black_ = stable_black;
    if (coverage_built_) build_coverage();
    worklist_.assign(flags_, kScheduledBit);
    if constexpr (kFastForward) {
      // Callers materialize first (notify_rule_changed) or are starting
      // from exact colors (construction), so dropping the set is safe.
      periodic_.reset(n);
      ff_entry_.assign(static_cast<std::size_t>(n), round_);
      if (fast_forward_) refresh_all(worklist_.items());
    }
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

  // Stable-periodic fast-forward state (empty / unused unless the rule
  // satisfies FastForwardRule). Invariant: periodic_ and worklist_ are
  // disjoint, their union is exactly the flagged-scheduled vertices, and a
  // member of periodic_ holds its end-of-ff_entry_[u] color in colors_.
  VertexWorklist periodic_;
  std::vector<std::int64_t> ff_entry_;
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
  // Compressed-row decode buffer (see nbrs()); untouched on plain graphs.
  NeighborScratch nbr_scratch_;

  std::int64_t round_ = 0;
  int k_ = 0;
  int num_colors_ = 0;
  Vertex num_active_ = 0;
  Vertex num_violations_ = 0;
  Vertex num_stable_black_ = 0;
  Vertex num_unstable_ = 0;
};

}  // namespace ssmis
