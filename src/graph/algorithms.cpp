#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "graph/builder.hpp"
#include "support/narrow.hpp"

namespace ssmis {

std::vector<std::int64_t> bfs_distances(const Graph& g, Vertex source) {
  if (source < 0 || source >= g.num_vertices())
    throw std::out_of_range("bfs_distances: source out of range");
  std::vector<std::int64_t> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<Vertex> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop();
    g.for_each_neighbor(u, [&](Vertex v) {
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        queue.push(v);
      }
    });
  }
  return dist;
}

std::vector<Vertex> connected_components(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> comp(static_cast<std::size_t>(n), -1);
  Vertex next_id = 0;
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < n; ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    comp[static_cast<std::size_t>(s)] = next_id;
    stack.push_back(s);
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      g.for_each_neighbor(u, [&](Vertex v) {
        if (comp[static_cast<std::size_t>(v)] < 0) {
          comp[static_cast<std::size_t>(v)] = next_id;
          stack.push_back(v);
        }
      });
    }
    ++next_id;
  }
  return comp;
}

Vertex num_components(const Graph& g) {
  const auto comp = connected_components(g);
  Vertex best = 0;
  for (Vertex c : comp) best = std::max(best, static_cast<Vertex>(c + 1));
  return best;
}

std::optional<std::int64_t> diameter(const Graph& g) {
  const Vertex n = g.num_vertices();
  if (n <= 1) return 0;
  std::int64_t best = 0;
  for (Vertex s = 0; s < n; ++s) {
    const auto dist = bfs_distances(g, s);
    for (std::int64_t d : dist) {
      if (d < 0) return std::nullopt;
      best = std::max(best, d);
    }
  }
  return best;
}

bool has_diameter_at_most_2(const Graph& g) {
  const Vertex n = g.num_vertices();
  if (n <= 1) return true;
  // Mark-and-scan: for each u, mark N+(u); every other vertex v must either
  // be marked (distance <= 1) or have a marked neighbor (distance 2).
  std::vector<char> marked(static_cast<std::size_t>(n), 0);
  for (Vertex u = 0; u < n; ++u) {
    marked[static_cast<std::size_t>(u)] = 1;
    g.for_each_neighbor(u, [&](Vertex w) { marked[static_cast<std::size_t>(w)] = 1; });
    for (Vertex v = 0; v < n; ++v) {
      if (marked[static_cast<std::size_t>(v)]) continue;
      bool ok = false;
      g.for_each_neighbor(v, [&](Vertex w) {
        if (marked[static_cast<std::size_t>(w)]) {
          ok = true;
          return false;
        }
        return true;
      });
      if (!ok) return false;
    }
    marked[static_cast<std::size_t>(u)] = 0;
    g.for_each_neighbor(u, [&](Vertex w) { marked[static_cast<std::size_t>(w)] = 0; });
  }
  return true;
}

bool is_tree(const Graph& g) {
  return g.num_vertices() >= 1 && g.num_edges() == g.num_vertices() - 1 &&
         num_components(g) == 1;
}

bool is_forest(const Graph& g) {
  return g.num_edges() == g.num_vertices() - num_components(g);
}

DegeneracyResult degeneracy(const Graph& g) {
  const Vertex n = g.num_vertices();
  DegeneracyResult result;
  result.order.reserve(static_cast<std::size_t>(n));
  std::vector<Vertex> deg = g.degrees();  // one sweep, any storage mode
  Vertex max_deg = 0;
  for (Vertex u = 0; u < n; ++u)
    max_deg = std::max(max_deg, deg[static_cast<std::size_t>(u)]);
  // Bucket queue keyed by current degree.
  std::vector<std::vector<Vertex>> buckets(static_cast<std::size_t>(max_deg) + 1);
  for (Vertex u = 0; u < n; ++u) buckets[static_cast<std::size_t>(deg[static_cast<std::size_t>(u)])].push_back(u);
  std::vector<char> removed(static_cast<std::size_t>(n), 0);
  // Invariant: no non-removed vertex has a current degree below `cursor`.
  // Pushes after a degree decrement lower `cursor` accordingly; entries with
  // outdated degrees are skipped as stale.
  Vertex cursor = 0;
  Vertex processed = 0;
  while (processed < n) {
    while (buckets[static_cast<std::size_t>(cursor)].empty()) ++cursor;
    auto& bucket = buckets[static_cast<std::size_t>(cursor)];
    const Vertex u = bucket.back();
    bucket.pop_back();
    if (removed[static_cast<std::size_t>(u)] ||
        deg[static_cast<std::size_t>(u)] != cursor) {
      continue;  // stale entry
    }
    removed[static_cast<std::size_t>(u)] = 1;
    result.order.push_back(u);
    result.degeneracy = std::max(result.degeneracy, cursor);
    ++processed;
    g.for_each_neighbor(u, [&](Vertex v) {
      if (removed[static_cast<std::size_t>(v)]) return;
      const Vertex nd = --deg[static_cast<std::size_t>(v)];
      buckets[static_cast<std::size_t>(nd)].push_back(v);
      cursor = std::min(cursor, nd);
    });
  }
  return result;
}

ArboricityBounds arboricity_bounds(const Graph& g) {
  const Vertex d = degeneracy(g).degeneracy;
  ArboricityBounds bounds;
  bounds.upper = d;  // greedy forest partition along a degeneracy ordering
  bounds.lower = static_cast<Vertex>((d + 1) / 2);
  if (g.num_edges() > 0) bounds.lower = std::max(bounds.lower, Vertex{1});
  return bounds;
}

Vertex common_neighbors(const Graph& g, Vertex u, Vertex v) {
  NeighborScratch su, sv;
  auto a = g.neighbors(u, su);
  auto b = g.neighbors(v, sv);
  Vertex count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

Vertex max_common_neighbors(const Graph& g) {
  const Vertex n = g.num_vertices();
  // Count wedges: for each center w, every pair of neighbors gains one
  // common neighbor. Quadratic in degree but linear in wedge count, which is
  // what P5 bounds anyway. We cap the per-pair map with a flat matrix for
  // small n and a hash-free two-pass for large n.
  Vertex best = 0;
  std::vector<Vertex> counter(static_cast<std::size_t>(n), 0);
  NeighborScratch su;
  for (Vertex u = 0; u < n; ++u) {
    // counter[v] = |N(u) ∩ N(v)| computed by scanning two-hop paths. The
    // outer row sits in a scratch buffer so the inner decode cannot
    // invalidate it.
    std::vector<Vertex> touched;
    for (Vertex w : g.neighbors(u, su)) {
      g.for_each_neighbor(w, [&](Vertex v) {
        if (v <= u) return;  // count each unordered pair once
        if (counter[static_cast<std::size_t>(v)] == 0) touched.push_back(v);
        ++counter[static_cast<std::size_t>(v)];
      });
    }
    for (Vertex v : touched) {
      best = std::max(best, counter[static_cast<std::size_t>(v)]);
      counter[static_cast<std::size_t>(v)] = 0;
    }
  }
  return best;
}

std::int64_t triangle_count(const Graph& g) {
  std::int64_t triangles = 0;
  NeighborScratch su, sv;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    // The outer row doubles as merge operand `a`; `b` decodes into its own
    // scratch, so `a` stays valid across the inner merges.
    const auto a = g.neighbors(u, su);
    for (Vertex v : a) {
      if (v <= u) continue;
      // Count w > v adjacent to both u and v.
      auto b = g.neighbors(v, sv);
      std::size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          if (a[i] > v) ++triangles;
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  return triangles;
}

InducedSubgraph induced_subgraph(const Graph& g, const std::vector<Vertex>& keep) {
  std::vector<Vertex> old_to_new(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const Vertex u = keep[i];
    if (u < 0 || u >= g.num_vertices())
      throw std::out_of_range("induced_subgraph: vertex out of range");
    if (old_to_new[static_cast<std::size_t>(u)] >= 0)
      throw std::invalid_argument("induced_subgraph: duplicate vertex in keep");
    old_to_new[static_cast<std::size_t>(u)] = static_cast<Vertex>(i);
  }
  GraphBuilder b(narrow_cast<Vertex>(keep.size()));
  for (Vertex u : keep) {
    g.for_each_neighbor(u, [&](Vertex v) {
      const Vertex nv = old_to_new[static_cast<std::size_t>(v)];
      const Vertex nu = old_to_new[static_cast<std::size_t>(u)];
      if (nv >= 0 && nu < nv) b.add_edge(nu, nv);
    });
  }
  InducedSubgraph result{b.build(), keep};
  return result;
}

Graph complement(const Graph& g) {
  const Vertex n = g.num_vertices();
  if (n > 4096) throw std::invalid_argument("complement: n too large (O(n^2) result)");
  GraphBuilder b(n);
  NeighborScratch scratch;
  for (Vertex u = 0; u < n; ++u) {
    auto nbrs = g.neighbors(u, scratch);
    std::size_t i = 0;
    for (Vertex v = u + 1; v < n; ++v) {
      while (i < nbrs.size() && nbrs[i] < v) ++i;
      if (i < nbrs.size() && nbrs[i] == v) continue;
      b.add_edge(u, v);
    }
  }
  return b.build();
}

std::optional<std::vector<char>> bipartition(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<char> color(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> queue;
  for (Vertex s = 0; s < n; ++s) {
    if (color[static_cast<std::size_t>(s)] >= 0) continue;
    color[static_cast<std::size_t>(s)] = 0;
    queue.assign(1, s);
    while (!queue.empty()) {
      const Vertex u = queue.back();
      queue.pop_back();
      bool odd_cycle = false;
      g.for_each_neighbor(u, [&](Vertex v) {
        if (color[static_cast<std::size_t>(v)] < 0) {
          color[static_cast<std::size_t>(v)] =
              static_cast<char>(1 - color[static_cast<std::size_t>(u)]);
          queue.push_back(v);
        } else if (color[static_cast<std::size_t>(v)] ==
                   color[static_cast<std::size_t>(u)]) {
          odd_cycle = true;
          return false;
        }
        return true;
      });
      if (odd_cycle) return std::nullopt;
    }
  }
  return color;
}

bool is_bipartite(const Graph& g) { return bipartition(g).has_value(); }

std::vector<Vertex> core_numbers(const Graph& g) {
  // Reuse the degeneracy peeling order: the core number of a vertex is the
  // maximum min-degree seen up to (and including) its removal.
  const auto result = degeneracy(g);
  std::vector<Vertex> core(static_cast<std::size_t>(g.num_vertices()), 0);
  // Recompute peel degrees along the order.
  std::vector<Vertex> deg = g.degrees();
  std::vector<char> removed(static_cast<std::size_t>(g.num_vertices()), 0);
  Vertex running_max = 0;
  for (Vertex u : result.order) {
    running_max = std::max(running_max, deg[static_cast<std::size_t>(u)]);
    core[static_cast<std::size_t>(u)] = running_max;
    removed[static_cast<std::size_t>(u)] = 1;
    g.for_each_neighbor(u, [&](Vertex v) {
      if (!removed[static_cast<std::size_t>(v)]) --deg[static_cast<std::size_t>(v)];
    });
  }
  return core;
}

namespace {

// Branch-and-bound over "undecided" vertex sets. `mode` selects the
// objective: maximize an independent set, or minimize a *maximal* one.
struct MisSearch {
  const Graph* g;
  std::vector<char> in_set;     // current independent set
  std::vector<char> excluded;   // vertices decided out
  std::vector<Vertex> best;
  bool minimize_maximal = false;

  Vertex pick_undecided_max_degree() const {
    Vertex best_v = -1;
    Vertex best_deg = -1;
    for (Vertex u = 0; u < g->num_vertices(); ++u) {
      const auto idx = static_cast<std::size_t>(u);
      if (in_set[idx] || excluded[idx]) continue;
      Vertex live = 0;
      g->for_each_neighbor(u, [&](Vertex v) {
        const auto j = static_cast<std::size_t>(v);
        if (!in_set[j] && !excluded[j]) ++live;
      });
      if (live > best_deg) {
        best_deg = live;
        best_v = u;
      }
    }
    return best_v;
  }

  std::vector<Vertex> current_members() const {
    std::vector<Vertex> out;
    for (Vertex u = 0; u < g->num_vertices(); ++u)
      if (in_set[static_cast<std::size_t>(u)]) out.push_back(u);
    return out;
  }

  // Is the current set maximal? (Every excluded/undecided vertex must have a
  // member neighbor; used by the minimize branch when no undecided remain.)
  bool current_is_maximal() const {
    for (Vertex u = 0; u < g->num_vertices(); ++u) {
      if (in_set[static_cast<std::size_t>(u)]) continue;
      bool dominated = false;
      g->for_each_neighbor(u, [&](Vertex v) {
        if (in_set[static_cast<std::size_t>(v)]) {
          dominated = true;
          return false;
        }
        return true;
      });
      if (!dominated) return false;
    }
    return true;
  }

  void search(Vertex set_size, Vertex undecided) {
    if (!minimize_maximal) {
      // Bound: even taking every undecided vertex cannot beat the best.
      if (set_size + undecided <= narrow_cast<Vertex>(best.size())) return;
    } else {
      // Bound: the set can only grow; prune when already >= best.
      if (!best.empty() && set_size >= narrow_cast<Vertex>(best.size())) return;
    }
    const Vertex u = pick_undecided_max_degree();
    if (u < 0) {
      if (!minimize_maximal) {
        if (set_size > narrow_cast<Vertex>(best.size())) best = current_members();
      } else if (current_is_maximal()) {
        if (best.empty() || set_size < narrow_cast<Vertex>(best.size()))
          best = current_members();
      }
      return;
    }
    const auto idx = static_cast<std::size_t>(u);
    // Branch 1: take u (exclude its live neighbors).
    std::vector<Vertex> newly_excluded;
    in_set[idx] = 1;
    g->for_each_neighbor(u, [&](Vertex v) {
      const auto j = static_cast<std::size_t>(v);
      if (!excluded[j] && !in_set[j]) {
        excluded[j] = 1;
        newly_excluded.push_back(v);
      }
    });
    search(set_size + 1,
           undecided - 1 - narrow_cast<Vertex>(newly_excluded.size()));
    in_set[idx] = 0;
    for (Vertex v : newly_excluded) excluded[static_cast<std::size_t>(v)] = 0;
    // Branch 2: exclude u.
    excluded[idx] = 1;
    search(set_size, undecided - 1);
    excluded[idx] = 0;
  }
};

}  // namespace

std::vector<Vertex> exact_max_independent_set(const Graph& g, Vertex max_n) {
  if (g.num_vertices() > max_n)
    throw std::invalid_argument("exact_max_independent_set: graph too large");
  MisSearch search;
  search.g = &g;
  search.in_set.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  search.excluded = search.in_set;
  search.search(0, g.num_vertices());
  return search.best;
}

Vertex independent_domination_number(const Graph& g, Vertex max_n) {
  if (g.num_vertices() > max_n)
    throw std::invalid_argument("independent_domination_number: graph too large");
  if (g.num_vertices() == 0) return 0;
  MisSearch search;
  search.g = &g;
  search.minimize_maximal = true;
  search.in_set.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  search.excluded = search.in_set;
  search.search(0, g.num_vertices());
  return narrow_cast<Vertex>(search.best.size());
}

}  // namespace ssmis
