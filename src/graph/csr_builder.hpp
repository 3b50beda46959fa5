// Streaming CSR construction: builds a Graph directly from an edge stream,
// with no buffered edge list. (GraphBuilder, graph/builder.hpp, buffers its
// edges and replays them through from_source.) There are three builds:
//
// `from_source` takes any edge stream — duplicates, self-loops and either
// orientation allowed — and asks the caller to *replay* it twice:
//
//   pass 1  counts degrees (offsets array),
//   pass 2  places endpoints through a cursor folded into the offsets array,
//
// then sorts and deduplicates each row in place. Peak memory is the final
// CSR (8 bytes/vertex offsets + 4 bytes/endpoint adjacency) plus the
// duplicate slack of the stream itself (<= ~1.3x for dup-emitting sources
// like the configuration model). The edge source must be *replayable*:
// invoking it twice must emit the identical multiset of edges.
// Deterministic generators satisfy this for free by re-seeding their RNG
// per pass. Self-loops are dropped, endpoints validated, and every row ends
// up sorted and deduplicated, so the Graph depends only on the set of
// edges the stream names.
//
// `from_column_source` is the one-pass build for a source that already
// emits each edge once, as (u, v) with u < v, in strictly increasing
// (v, u) order: column v of the lower triangle is v's lower neighbours in
// ascending order, and columns come in ascending order. G(n,p) skip
// sampling emits exactly this. The stream is appended to the adjacency
// array; each column is then moved to the front of its row, and mirrored
// into its neighbours' upper row parts in column order, which leaves every
// row sorted without a sort, a dedup or a replay. Peak memory is the final
// CSR plus a 4 bytes/vertex array (each vertex's upper-neighbour count,
// then its row's write cursor) and 8 bytes per 2^10 rows of cursor bases.
//
// `from_source_compressed` is the 10^8-vertex variant of `from_source`:
// instead of materializing the 12-bytes-per-endpoint plain CSR it encodes
// rows straight into the varint/delta codec, chunk by chunk. The source
// replays once for the degree pass and once per chunk; peak memory is the
// growing compressed payload plus one bounded chunk buffer (default 2^26
// endpoints = 256 MB) plus the 4-bytes-per-vertex degree array — ~1.0x the
// final *compressed* size in the large sparse regime, where the plain
// builder's peak is the (much larger) plain CSR.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "rng/splitmix64.hpp"
#include "support/narrow.hpp"

namespace ssmis {

class CsrBuilder {
 public:
  // Builds a Graph on n vertices from `source`, a callable invoked exactly
  // twice as `source(emit)` where `emit(Vertex u, Vertex v)` records one
  // undirected edge. Throws std::invalid_argument on negative n or
  // out-of-range endpoints, std::logic_error if the two passes disagree
  // (detected via an order-independent multiset hash of each pass's stream,
  // so equal edge *counts* over different edges are caught too — with
  // 2^-64-style false-accept odds, not a guarantee).
  template <typename Source>
  static Graph from_source(Vertex n, Source&& source) {
    if (n < 0) throw std::invalid_argument("CsrBuilder: negative vertex count");
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1, 0);

    // Pass 1: per-endpoint degree counts (duplicates included; self-loops
    // dropped here and in pass 2).
    std::uint64_t stream_hash1 = 0;
    source([&](Vertex u, Vertex v) {
      check_endpoints(n, u, v);
      if (u == v) return;
      ++offsets[static_cast<std::size_t>(u) + 1];
      ++offsets[static_cast<std::size_t>(v) + 1];
      stream_hash1 += edge_hash(u, v);
    });
    for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

    // Pass 2: placement. offsets[u] doubles as the write cursor for row u;
    // after the pass offsets[u] holds the *end* of row u and is shifted back.
    std::vector<Vertex> adj(static_cast<std::size_t>(offsets.back()));
    std::uint64_t stream_hash2 = 0;
    source([&](Vertex u, Vertex v) {
      check_endpoints(n, u, v);
      if (u == v) return;
      const auto cu = static_cast<std::size_t>(offsets[static_cast<std::size_t>(u)]++);
      const auto cv = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]++);
      if (cu >= adj.size() || cv >= adj.size())
        throw std::logic_error("CsrBuilder: edge source is not replayable "
                               "(pass 2 emitted more edges than pass 1)");
      adj[cu] = v;
      adj[cv] = u;
      stream_hash2 += edge_hash(u, v);
    });
    if (stream_hash1 != stream_hash2)
      throw std::logic_error(
          "CsrBuilder: edge source is not replayable (the two passes emitted "
          "different edge multisets)");
    return finalize(n, std::move(offsets), std::move(adj));
  }

  // Builds a Graph on n vertices in one pass from `source`, a callable
  // invoked exactly once as `source(emit)` that emits every edge exactly
  // once as emit(u, v) with u < v, in strictly increasing (v, u) order.
  // `edge_capacity` sizes the adjacency array for the whole build, so a
  // stream of at most that many edges never regrows it (a longer one still
  // builds correctly). Throws std::invalid_argument on negative n or an
  // out-of-range endpoint, and std::logic_error on an edge that breaks the
  // order: a repeated pair, a column going backwards, or u >= v. The result
  // equals from_source over the same edges.
  template <typename Source>
  static Graph from_column_source(Vertex n, std::int64_t edge_capacity,
                                  Source&& source) {
    if (n < 0) throw std::invalid_argument("CsrBuilder: negative vertex count");
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    std::vector<Vertex> adj;
    adj.reserve(2 * static_cast<std::size_t>(std::max<std::int64_t>(edge_capacity, 0)));
    std::uint64_t last = 0;  // (v, u) of the previous edge, packed
    source([&](Vertex u, Vertex v) {
      check_endpoints(n, u, v);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint64_t>(u);
      if (u >= v || key <= last)
        throw std::logic_error("CsrBuilder: edge (" + std::to_string(u) + "," +
                               std::to_string(v) +
                               ") breaks the column order (u < v, strictly "
                               "increasing (v, u))");
      last = key;
      // Column sizes, summed into column starts below, so that no step of
      // the stream branches on whether a column ended.
      ++offsets[static_cast<std::size_t>(v) + 1];
      adj.push_back(u);
    });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    return lay_out_columns(n, std::move(offsets), std::move(adj));
  }

  // Default cap on the compressed sink's chunk buffer, in endpoints
  // (x4 bytes). The effective chunk is adaptive — see from_source_compressed.
  static constexpr std::int64_t kDefaultChunkEndpoints = std::int64_t{1} << 26;

  // Builds a compressed-storage Graph from `source` without materializing
  // the plain CSR: a degree pass sizes contiguous row chunks, then one
  // replay per chunk collects, sorts, deduplicates, and encodes those rows.
  // `chunk_endpoints` CAPS the in-flight chunk buffer; the effective chunk
  // is min(cap, max(2^22, total_endpoints / 8)), so small graphs never pay
  // a buffer sized for huge ones and huge graphs never exceed the cap —
  // scratch stays proportionate at ~8 replays until the cap bites.
  // Same contracts as from_source (replayability enforced via the
  // order-independent multiset hash on EVERY replay, endpoint validation,
  // self-loop dropping), and the result is structurally identical to
  // Graph::compress(from_source(n, source)).
  template <typename Source>
  static Graph from_source_compressed(
      Vertex n, Source&& source,
      std::int64_t chunk_endpoints = kDefaultChunkEndpoints) {
    if (n < 0) throw std::invalid_argument("CsrBuilder: negative vertex count");
    if (chunk_endpoints <= 0)
      throw std::invalid_argument("CsrBuilder: chunk_endpoints must be positive");

    // Degree pass (duplicates included — dedup happens per-row below).
    std::vector<Vertex> degrees(static_cast<std::size_t>(n), 0);
    std::uint64_t hash1 = 0;
    std::int64_t total_endpoints = 0;
    source([&](Vertex u, Vertex v) {
      check_endpoints(n, u, v);
      if (u == v) return;
      ++degrees[static_cast<std::size_t>(u)];
      ++degrees[static_cast<std::size_t>(v)];
      total_endpoints += 2;
      hash1 += edge_hash(u, v);
    });
    chunk_endpoints = std::min<std::int64_t>(
        chunk_endpoints,
        std::max<std::int64_t>(std::int64_t{1} << 22, total_endpoints / 8));

    CompressedAdjacencyEncoder enc(n);
    // Exact-bound reservation: every encoded id/gap is < n and degrees only
    // shrink under dedup, so this sum can never be exceeded — payload
    // growth stays realloc-free (no doubling transient at the 10^8 scale).
    {
      const std::size_t id_len = cadj::varint_len(
          n > 0 ? narrow_cast<std::uint32_t>(n) : 0u);
      std::size_t bound = 0;
      for (const Vertex d : degrees)
        bound += cadj::varint_len(narrow_cast<std::uint32_t>(d)) +
                 static_cast<std::size_t>(d) * id_len;
      enc.reserve(bound);
    }
    std::vector<Vertex> buf;
    std::vector<std::int64_t> start;  // row boundaries within the chunk
    std::vector<std::int64_t> cursor;
    Vertex lo = 0;
    while (lo < n) {
      // Grow the chunk while it fits the endpoint budget (a single row
      // larger than the budget gets a chunk of its own). The row-count cap
      // at a quarter of the budget bounds the 16 B/row start+cursor arrays
      // by the chunk buffer itself, even across long low-degree runs.
      Vertex hi = lo;
      std::int64_t endpoints = 0;
      while (hi < n) {
        const auto d = static_cast<std::int64_t>(degrees[static_cast<std::size_t>(hi)]);
        if (hi > lo && (endpoints + d > chunk_endpoints ||
                        static_cast<std::int64_t>(hi - lo) >=
                            std::max<std::int64_t>(1, chunk_endpoints / 4)))
          break;
        endpoints += d;
        ++hi;
      }
      const std::size_t rows = static_cast<std::size_t>(hi - lo);
      start.assign(rows + 1, 0);
      for (std::size_t r = 0; r < rows; ++r)
        start[r + 1] = start[r] +
                       degrees[static_cast<std::size_t>(lo) + r];
      buf.resize(static_cast<std::size_t>(endpoints));
      cursor.assign(start.begin(), start.end() - 1);

      std::uint64_t hash2 = 0;
      source([&](Vertex u, Vertex v) {
        check_endpoints(n, u, v);
        if (u == v) return;
        hash2 += edge_hash(u, v);
        const auto place = [&](Vertex at, Vertex nbr) {
          if (at < lo || at >= hi) return;
          std::int64_t& c = cursor[static_cast<std::size_t>(at - lo)];
          if (c >= start[static_cast<std::size_t>(at - lo) + 1])
            throw std::logic_error(
                "CsrBuilder: edge source is not replayable (a replay emitted "
                "more edges than the degree pass)");
          buf[static_cast<std::size_t>(c++)] = nbr;
        };
        place(u, v);
        place(v, u);
      });
      if (hash2 != hash1)
        throw std::logic_error(
            "CsrBuilder: edge source is not replayable (a replay emitted a "
            "different edge multiset than the degree pass)");

      for (std::size_t r = 0; r < rows; ++r) {
        Vertex* first = buf.data() + start[r];
        Vertex* last = buf.data() + start[r + 1];
        std::sort(first, last);
        last = std::unique(first, last);
        enc.add_row({first, static_cast<std::size_t>(last - first)});
      }
      lo = hi;
    }
    // The scratch is dead; release it before finish() so its slack-return
    // copy (if any) is not stacked on top of the chunk buffers.
    degrees = {};
    buf = {};
    start = {};
    cursor = {};
    return std::move(enc).finish();
  }

 private:
  // Commutative per-edge hash summed over a pass: order-independent, so the
  // passes may emit in any order, but (with overwhelming probability) not
  // different multisets.
  static std::uint64_t edge_hash(Vertex u, Vertex v) {
    return splitmix64_mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
                           << 32) |
                          static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))) +
           splitmix64_mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))
                           << 32) |
                          static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
  }

  static void check_endpoints(Vertex n, Vertex u, Vertex v) {
    if (u < 0 || v < 0 || u >= n || v >= n) {
      throw std::invalid_argument("CsrBuilder: edge (" + std::to_string(u) + "," +
                                  std::to_string(v) + ") out of range [0," +
                                  std::to_string(n) + ")");
    }
  }

  // Restores the cursor-shifted offsets, sorts each row, deduplicates in
  // place, and wraps the arrays in a Graph.
  static Graph finalize(Vertex n, std::vector<std::int64_t> offsets,
                        std::vector<Vertex> adj);

  // Rows per cursor block, as a power of two: lay_out_columns keeps each
  // row's write cursor as a 32-bit offset from its block's start.
  static constexpr int kCursorBlockBits = 10;

  // Turns from_column_source's stream (adj[0, m) holding the columns in
  // order, offsets[v] the start of column v) into the CSR, in place in adj.
  static Graph lay_out_columns(Vertex n, std::vector<std::int64_t> offsets,
                               std::vector<Vertex> adj);
};

}  // namespace ssmis
