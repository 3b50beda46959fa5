// Immutable undirected graph handle over plain CSR storage.
//
// All processes, models, and verifiers operate on this type. Vertices are
// dense integers [0, n). Adjacency lists are sorted, deduplicated, and
// loop-free (enforced by the builders), so `has_edge` is a binary search and
// neighborhood iteration is cache-friendly.
//
// Storage model: a Graph is a cheap-to-copy immutable handle over
// offsets[n+1] (i64) + adj[2m] (i32). The arrays live in heap vectors
// (builder output, `load_ssg`) or in an external read-only region such as
// an mmap'd `.ssg` file (`mmap_ssg`). A shared keep-alive handle owns the
// backing either way, so copies share storage instead of duplicating
// gigabytes at scale.
//
// Neighbor access: `neighbors(u)` returns a zero-copy span over u's row;
// `for_each_neighbor(u, f)` loops over the same span and lets f stop early.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/narrow.hpp"

namespace ssmis {

using Vertex = std::int32_t;
using Edge = std::pair<Vertex, Vertex>;

class Graph {
 public:
  // Empty graph (0 vertices). Useful as a placeholder; all queries are valid.
  Graph();

  // Builds from an arbitrary edge list: self-loops are dropped, duplicate and
  // reversed duplicates are merged, endpoints are validated against [0, n).
  // Throws std::invalid_argument on out-of-range endpoints or negative n.
  [[nodiscard]] static Graph from_edges(Vertex n, std::span<const Edge> edges);
  [[nodiscard]] static Graph from_edges(Vertex n, std::initializer_list<Edge> edges);

  // Zero-copy view over externally owned CSR arrays (the `.ssg` mmap loader).
  // `backing` keeps the arrays alive for the Graph's lifetime. The arrays
  // must already satisfy the class invariants — sorted deduplicated rows,
  // symmetric adjacency, no self-loops, monotone offsets with
  // offsets[0] == 0 and offsets[n] == adj_len; callers are trusted.
  [[nodiscard]] static Graph from_external_csr(Vertex n, const std::int64_t* offsets,
                                 const Vertex* adj, std::size_t adj_len,
                                 std::shared_ptr<const void> backing);

  // Adopts already-valid CSR vectors (the `.ssg` owned-storage loader).
  // Same trust contract as from_external_csr.
  [[nodiscard]] static Graph from_owned_csr(Vertex n, std::vector<std::int64_t> offsets,
                              std::vector<Vertex> adj) {
    return Graph(n, std::move(offsets), std::move(adj));
  }

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::int64_t num_edges() const { return static_cast<std::int64_t>(adj_size_) / 2; }

  // Sorted, duplicate-free open neighborhood of u.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex u) const {
    return {adj_ + offsets_[static_cast<std::size_t>(u)],
            adj_ + offsets_[static_cast<std::size_t>(u) + 1]};
  }

  // Calls f on u's neighbors in ascending order. `f` returns void, or bool
  // with false = stop.
  template <typename F>
  void for_each_neighbor(Vertex u, F&& f) const {
    for (const Vertex v : neighbors(u)) {
      if constexpr (std::is_void_v<std::invoke_result_t<F&, Vertex>>) {
        f(v);
      } else {
        if (!f(v)) return;
      }
    }
  }

  [[nodiscard]] Vertex degree(Vertex u) const {
    return narrow_cast<Vertex>(offsets_[static_cast<std::size_t>(u) + 1] -
                               offsets_[static_cast<std::size_t>(u)]);
  }

  [[nodiscard]] Vertex max_degree() const;
  [[nodiscard]] double average_degree() const;

  // All n degrees at once, in one sequential pass over the offsets: what
  // degree-keyed algorithms (degeneracy peeling, degree-biased inits) call.
  [[nodiscard]] std::vector<Vertex> degrees() const;

  // Calls out(u, sum of value(v) over the neighbors v of u) for u = 0, 1,
  // ..., n - 1 in order: one sequential sweep of the adjacency. The sweep
  // walks fixed-size chunks of the adjacency array and cuts each chunk's
  // running sums at the row ends inside it, so only the chunk loop, not
  // every row, ends in a hard-to-predict exit branch (~2.3x faster than a
  // per-row loop on G(2^15, 8/n)).
  //
  // Sums are std::uint64_t, modulo 2^64: the running total may wrap, and a
  // row's sum is the difference of two running totals. So values may pack
  // several lanes into one word — the engine sums two 32-bit counters per
  // sweep, the second in the high half — and each lane comes out exact as
  // long as its row sum fits its lane: a carry out of a lower lane in the
  // running total cancels in the difference.
  template <typename Value, typename Out>
  void neighbor_sums(Value value, Out out) const {
    constexpr std::int64_t kChunk = 256;
    std::uint64_t running[kChunk + 1];  // running[i]: total before entry cs + i
    std::uint64_t total = 0;
    std::uint64_t row_start = 0;  // total before the current row's first entry
    const std::int64_t len = offsets_[static_cast<std::size_t>(n_)];
    Vertex u = 0;
    for (std::int64_t cs = 0; cs < len; cs += kChunk) {
      const std::int64_t ce = std::min(cs + kChunk, len);
      running[0] = total;
      for (std::int64_t e = cs; e < ce; ++e) {
        total += static_cast<std::uint64_t>(value(adj_[e]));
        running[e - cs + 1] = total;
      }
      for (; u < n_ && offsets_[static_cast<std::size_t>(u) + 1] <= ce; ++u) {
        const std::uint64_t row_end = running[offsets_[static_cast<std::size_t>(u) + 1] - cs];
        out(u, row_end - row_start);
        row_start = row_end;
      }
    }
    for (; u < n_; ++u) out(u, std::uint64_t{0});  // no edges at all
  }

  // Binary search in the sorted adjacency of the lower-degree endpoint;
  // false for out-of-range ids and u == v.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  // All edges (u < v), in increasing (u, v) order.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  // Raw CSR views (serialization and checksumming).
  [[nodiscard]] std::span<const std::int64_t> offsets() const {
    return {offsets_, static_cast<std::size_t>(n_) + 1};
  }
  [[nodiscard]] std::span<const Vertex> adjacency() const { return {adj_, adj_size_}; }

  // True when the arrays live in an external region (e.g. an mmap'd `.ssg`
  // file) rather than heap vectors.
  [[nodiscard]] bool is_mapped() const { return mapped_; }

  // One-word storage-mode label, "owned" or "mmap": what the scale drivers
  // print next to timings.
  [[nodiscard]] std::string storage_mode() const;

  // Deep structural equality (n, per-row adjacency) across storage modes;
  // handles sharing their arrays short-circuit.
  [[nodiscard]] bool operator==(const Graph& other) const;

  // One-line human-readable summary, e.g. "Graph(n=100, m=250, maxdeg=9)".
  [[nodiscard]] std::string summary() const;

 private:
  friend class CsrBuilder;
  Graph(Vertex n, std::vector<std::int64_t> offsets, std::vector<Vertex> adj);

  // Owned-storage backing, parked behind the shared keep-alive handle so
  // copies of the Graph share it.
  struct Storage;

  static constexpr std::int64_t kEmptyOffsets[1] = {0};

  Vertex n_ = 0;
  const std::int64_t* offsets_ = kEmptyOffsets;  // n+1 entries
  const Vertex* adj_ = nullptr;                  // 2m entries, sorted per row
  std::size_t adj_size_ = 0;                     // total endpoints (2m)
  bool mapped_ = false;
  std::shared_ptr<const void> backing_;  // owns whatever the pointers point into
};

}  // namespace ssmis
