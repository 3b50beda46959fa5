// Immutable undirected graph handle over one of two storage modes.
//
// All processes, models, and verifiers operate on this type. Vertices are
// dense integers [0, n). Adjacency lists are sorted, deduplicated, and
// loop-free (enforced by the builders), so `has_edge` is a (logical) binary
// search and neighborhood iteration is cache-friendly.
//
// Storage model: a Graph is a cheap-to-copy immutable handle. Two layouts
// exist underneath it:
//
//   plain CSR    offsets[n+1] (i64) + adj[2m] (i32), in heap vectors
//                (builder output, `load_ssg`) or an external read-only
//                region such as an mmap'd `.ssg` v1 file (`mmap_ssg`);
//   compressed   varint/delta row codec (src/graph/varint.hpp): per-row
//                delta-coded neighbor gaps plus a sampled offset index
//                (one u64 per 64 rows) — the 10^8-vertex format, heap-owned
//                (`Graph::compress`, the CsrBuilder compress sink) or
//                mmap'd from an `.ssg` v2 file.
//
// A shared keep-alive handle owns the backing either way, so copies share
// storage instead of duplicating gigabytes at scale.
//
// Neighbor access and the decode path: `neighbors(u)` returns a zero-copy
// span for plain storage and THROWS std::logic_error for compressed storage
// (there is no contiguous row to point at) — code that must run on either
// layout uses one of the three decode-aware paths, all of which degrade to
// the raw span (zero overhead) on plain storage:
//
//   for_each_neighbor(u, f)    streaming decode, zero allocation, safe to
//                              nest; f may return bool (false = stop);
//   neighbors(u, scratch)      decodes into a caller-owned NeighborScratch
//                              and returns a span over it — for code that
//                              needs random access / std algorithms over
//                              the row (spans into a scratch die on its
//                              next use);
//   RowStream                  sequential sweep over rows 0..n-1 in O(total
//                              payload bytes) — full-graph passes must use
//                              this instead of n random seeks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/varint.hpp"
#include "support/narrow.hpp"

namespace ssmis {

using Vertex = std::int32_t;
using Edge = std::pair<Vertex, Vertex>;

// Caller-owned decode buffer for Graph::neighbors(u, scratch). Reused across
// calls (no allocation once grown to the max degree seen); one scratch per
// concurrent decoder — each engine and each phase-clock range has its own.
struct NeighborScratch {
  std::vector<Vertex> buf;
};

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

  // Adopts an already-encoded compressed payload (the CsrBuilder compress
  // sink and the `.ssg` v2 owned loader). `index` must have
  // cadj::index_entries(n) entries sampled every cadj::kSuperblock rows with
  // the end-of-payload sentinel last; `adj_len` is the total endpoint count
  // (2m). Rows must satisfy the same structural invariants as CSR storage;
  // callers are trusted (the v2 kFull load validates before trusting).
  [[nodiscard]] static Graph from_compressed(Vertex n, std::int64_t adj_len,
                               std::vector<std::uint64_t> index,
                               std::vector<std::uint8_t> payload);

  // Zero-copy compressed view over an external region (the `.ssg` v2 mmap
  // loader). Same trust contract as from_compressed.
  [[nodiscard]] static Graph from_external_compressed(Vertex n, std::int64_t adj_len,
                                        const std::uint64_t* index,
                                        const std::uint8_t* payload,
                                        std::size_t payload_bytes,
                                        std::shared_ptr<const void> backing);

  // Transcodes any graph into (heap-owned) compressed storage / back into
  // plain CSR. `compress` on an already-compressed graph (and `decompress`
  // on a plain one) returns a storage-sharing copy.
  [[nodiscard]] static Graph compress(const Graph& g);
  [[nodiscard]] static Graph decompress(const Graph& g);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::int64_t num_edges() const { return static_cast<std::int64_t>(adj_size_) / 2; }

  // Sorted, duplicate-free open neighborhood of u — plain storage only.
  // Throws std::logic_error on compressed storage: use for_each_neighbor,
  // neighbors(u, scratch), or RowStream there.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex u) const {
    if (compressed_) fail_needs_decode();
    return {adj_ + offsets_[static_cast<std::size_t>(u)],
            adj_ + offsets_[static_cast<std::size_t>(u) + 1]};
  }

  // Decode-aware row view: the raw span on plain storage (scratch untouched,
  // inline — zero overhead over neighbors(u)), a decode into `scratch` on
  // compressed storage. The returned span is invalidated by the next use of
  // the same scratch.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex u, NeighborScratch& scratch) const {
    if (!compressed_) {
      return {adj_ + offsets_[static_cast<std::size_t>(u)],
              adj_ + offsets_[static_cast<std::size_t>(u) + 1]};
    }
    return decode_row(u, scratch);
  }

  // Streams u's neighbors in ascending order through `f` — zero-allocation
  // on every storage mode. `f` returns void, or bool with false = stop.
  template <typename F>
  void for_each_neighbor(Vertex u, F&& f) const {
    if (!compressed_) {
      const Vertex* it = adj_ + offsets_[static_cast<std::size_t>(u)];
      const Vertex* end = adj_ + offsets_[static_cast<std::size_t>(u) + 1];
      for (; it != end; ++it) {
        if constexpr (std::is_void_v<std::invoke_result_t<F&, Vertex>>) {
          f(*it);
        } else {
          if (!f(*it)) return;
        }
      }
      return;
    }
    const std::uint8_t* p =
        cadj::seek_row(cpayload_, cpayload_bytes_, cindex_, n_, u);
    cadj::visit_row(p, cpayload_ + cpayload_bytes_, n_, std::forward<F>(f));
  }

  // Sequential whole-graph sweep: next() yields the rows of 0, 1, ..., n-1
  // in order, costing O(total payload bytes) overall on compressed storage
  // (vs O(n * superblock) for n random seeks). The returned span obeys the
  // same lifetime rule as neighbors(u, scratch).
  class RowStream {
   public:
    explicit RowStream(const Graph& g)
        : g_(&g),
          p_(g.compressed_ ? g.cpayload_ : nullptr),
          end_(g.compressed_ ? g.cpayload_ + g.cpayload_bytes_ : nullptr) {}

    // Row for vertex `row()`; advances to the next row.
    [[nodiscard]] std::span<const Vertex> next(NeighborScratch& scratch) {
      const Vertex u = row_++;
      if (!g_->compressed_) return g_->neighbors(u);
      cadj::decode_row_into(p_, end_, g_->n_, scratch.buf);
      return {scratch.buf.data(), scratch.buf.size()};
    }

    // Advances past the current row without materializing it (cheaper than
    // next() on compressed storage when the row's contents are not needed).
    void skip() {
      ++row_;
      if (g_->compressed_) cadj::skip_row(p_, end_, g_->n_);
    }

    [[nodiscard]] Vertex row() const { return row_; }

   private:
    const Graph* g_;
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    Vertex row_ = 0;
  };

  [[nodiscard]] Vertex degree(Vertex u) const {
    if (compressed_) return compressed_degree(u);
    return narrow_cast<Vertex>(offsets_[static_cast<std::size_t>(u) + 1] -
                               offsets_[static_cast<std::size_t>(u)]);
  }

  [[nodiscard]] Vertex max_degree() const;
  [[nodiscard]] double average_degree() const;

  // All n degrees at once: O(n) reads on plain storage, one sequential
  // degree-header sweep (O(payload), not n superblock seeks) on compressed.
  // What degree-keyed algorithms (degeneracy peeling, degree-biased inits)
  // should call instead of n random degree(u) lookups.
  [[nodiscard]] std::vector<Vertex> degrees() const;

  // Calls out(u, sum of value(v) over the neighbors v of u) for u = 0, 1,
  // ..., n - 1 in order: one sequential sweep of the adjacency. On plain
  // storage the sweep walks fixed-size chunks of the adjacency array and
  // cuts each chunk's running sums at the row ends inside it, so only the
  // chunk loop, not every row, ends in a hard-to-predict exit branch
  // (~2.3x faster than a per-row loop on G(2^15, 8/n)). Compressed
  // storage decodes row by row.
  //
  // Sums are std::uint64_t, modulo 2^64: the running total may wrap, and a
  // row's sum is the difference of two running totals. So values may pack
  // several lanes into one word — the engine sums two 32-bit counters per
  // sweep, the second in the high half — and each lane comes out exact as
  // long as its row sum fits its lane: a carry out of a lower lane in the
  // running total cancels in the difference.
  template <typename Value, typename Out>
  void neighbor_sums(Value value, Out out) const {
    if (compressed_) {
      NeighborScratch scratch;
      RowStream rows(*this);
      for (Vertex u = 0; u < n_; ++u) {
        std::uint64_t sum = 0;
        for (const Vertex v : rows.next(scratch)) sum += static_cast<std::uint64_t>(value(v));
        out(u, sum);
      }
      return;
    }
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

  // Membership test over the sorted adjacency of the lower-degree endpoint:
  // binary search on plain storage, early-exit decode on compressed.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  // All edges (u < v), in increasing (u, v) order.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  // Raw CSR views (serialization and checksumming) — plain storage only;
  // std::logic_error on compressed storage (see compressed_index/payload).
  [[nodiscard]] std::span<const std::int64_t> offsets() const {
    if (compressed_) fail_needs_decode();
    return {offsets_, static_cast<std::size_t>(n_) + 1};
  }
  [[nodiscard]] std::span<const Vertex> adjacency() const {
    if (compressed_) fail_needs_decode();
    return {adj_, adj_size_};
  }

  // Raw codec views (the `.ssg` v2 writer) — compressed storage only;
  // std::logic_error otherwise.
  [[nodiscard]] std::span<const std::uint64_t> compressed_index() const;
  [[nodiscard]] std::span<const std::uint8_t> compressed_payload() const;

  // True when the arrays live in an external region (e.g. an mmap'd `.ssg`
  // file) rather than heap vectors.
  [[nodiscard]] bool is_mapped() const { return mapped_; }

  // True for the varint/delta compressed layout (either heap or mmap).
  [[nodiscard]] bool is_compressed() const { return compressed_; }

  // One-word storage-mode label: "owned", "mmap", "compressed", or
  // "compressed+mmap" — what the scale drivers print next to timings.
  [[nodiscard]] std::string storage_mode() const;

  // Deep structural equality (n, per-row adjacency) across any mix of
  // storage modes; same-layout comparisons short-circuit on the raw arrays.
  [[nodiscard]] bool operator==(const Graph& other) const;

  // One-line human-readable summary, e.g. "Graph(n=100, m=250, maxdeg=9)".
  [[nodiscard]] std::string summary() const;

 private:
  friend class CsrBuilder;
  Graph(Vertex n, std::vector<std::int64_t> offsets, std::vector<Vertex> adj);

  [[noreturn]] static void fail_needs_decode();
  [[noreturn]] static void fail_not_compressed();
  Vertex compressed_degree(Vertex u) const;
  std::span<const Vertex> decode_row(Vertex u, NeighborScratch& scratch) const;

  // Owned-storage backings, parked behind the shared keep-alive handle so
  // copies of the Graph share them.
  struct Storage;
  struct CompressedStorage;

  static constexpr std::int64_t kEmptyOffsets[1] = {0};

  Vertex n_ = 0;
  const std::int64_t* offsets_ = kEmptyOffsets;  // n+1 entries (plain mode)
  const Vertex* adj_ = nullptr;                  // 2m entries, sorted per row
  std::size_t adj_size_ = 0;                     // total endpoints (2m), any mode
  bool mapped_ = false;
  bool compressed_ = false;
  const std::uint64_t* cindex_ = nullptr;   // sampled row offsets (compressed)
  const std::uint8_t* cpayload_ = nullptr;  // varint/delta row payload
  std::size_t cpayload_bytes_ = 0;
  std::shared_ptr<const void> backing_;  // owns whatever the pointers point into
};

}  // namespace ssmis
