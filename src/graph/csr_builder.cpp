#include "graph/csr_builder.hpp"

#include <algorithm>
#include <limits>

namespace ssmis {

Graph CsrBuilder::finalize(Vertex n, std::vector<std::int64_t> offsets,
                           std::vector<Vertex> adj) {
  // After pass 2, offsets[u] == end of row u for u in [0, n) and offsets[n]
  // is the untouched total, which equals end of row n-1; shift right to
  // recover [0, end(0), ..., end(n-2)] starts.
  for (std::size_t u = static_cast<std::size_t>(n); u >= 1; --u)
    offsets[u] = offsets[u - 1];
  offsets[0] = 0;

  // Sort + deduplicate each row, compacting the adjacency array in place
  // (the write cursor never overtakes the read cursor).
  std::size_t write = 0;
  std::int64_t row_start = 0;
  for (std::size_t u = 0; u < static_cast<std::size_t>(n); ++u) {
    const std::int64_t row_end = offsets[u + 1];
    std::sort(adj.begin() + row_start, adj.begin() + row_end);
    offsets[u] = static_cast<std::int64_t>(write);
    for (std::int64_t i = row_start; i < row_end; ++i) {
      if (i == row_start || adj[static_cast<std::size_t>(i)] !=
                                adj[static_cast<std::size_t>(i) - 1]) {
        adj[write++] = adj[static_cast<std::size_t>(i)];
      }
    }
    row_start = row_end;
  }
  offsets[static_cast<std::size_t>(n)] = static_cast<std::int64_t>(write);

  // Return duplicate slack when it is worth a realloc; duplicate-free
  // streams (gnp, trees) take the no-op branch and never copy.
  if (write < adj.size()) {
    adj.resize(write);
    if (adj.capacity() - adj.size() > adj.size() / 8) adj.shrink_to_fit();
  }
  return Graph(n, std::move(offsets), std::move(adj));
}

Graph CsrBuilder::lay_out_columns(Vertex n, std::vector<std::int64_t> offsets,
                                  std::vector<Vertex> adj) {
  const std::int64_t m = offsets[static_cast<std::size_t>(n)];
  const auto rows = static_cast<std::size_t>(n);
  adj.resize(2 * static_cast<std::size_t>(m));

  // upper[u] counts u's neighbours above it, u's appearances in the stream.
  // A loop of its own: as a step of the source's loop, the same increments
  // cost ~6x more at n = 10^7 (docs/architecture.md).
  std::vector<Vertex> upper(rows, 0);
  for (std::int64_t i = 0; i < m; ++i)
    ++upper[static_cast<std::size_t>(adj[static_cast<std::size_t>(i)])];

  // Row v starts at its column's stream start plus the upper neighbours of
  // the rows before it, so no column moves left, and the columns still to
  // move all end at or before its start: moving the last column first never
  // overwrites one still to move. Each row's upper part begins where its
  // column ends, which is where upper[v] now points, relative to the row.
  std::int64_t upper_before = m;  // upper neighbours of rows < v
  std::int64_t column_end = m;
  for (std::size_t v = rows; v-- > 0;) {
    const std::int64_t column_start = offsets[v];
    upper_before -= upper[v];
    const std::int64_t row_start = column_start + upper_before;
    if (row_start > column_start)
      std::copy_backward(adj.begin() + column_start, adj.begin() + column_end,
                         adj.begin() + row_start + (column_end - column_start));
    offsets[v] = row_start;
    upper[v] = narrow_cast<Vertex>(column_end - column_start);
    column_end = column_start;
  }
  offsets[rows] = 2 * m;

  // Row u's write cursor counts from base[u >> shift], the start of its
  // block of 2^shift rows, so a mirrored entry costs two random accesses
  // (a 4-byte cursor and the slot it names), not also the row's 8-byte
  // offset. shift is the largest up to kCursorBlockBits whose blocks all
  // span fewer than 2^31 entries; at 0 a block is one row, which always fits.
  const auto fits = [&](int shift) {
    const std::size_t block = std::size_t{1} << shift;
    for (std::size_t first = 0; first < rows; first += block)
      if (offsets[std::min(rows, first + block)] - offsets[first] >
          std::numeric_limits<Vertex>::max())
        return false;
    return true;
  };
  int shift = kCursorBlockBits;
  while (shift > 0 && !fits(shift)) --shift;
  std::vector<std::int64_t> base((rows >> shift) + 1);
  for (std::size_t b = 0; b < base.size(); ++b) base[b] = offsets[b << shift];
  std::vector<Vertex> cursor = std::move(upper);  // each column's length
  for (std::size_t u = 0; u < rows; ++u)
    cursor[u] = narrow_cast<Vertex>(offsets[u] + cursor[u] - base[u >> shift]);

  // Mirror each column into the upper parts of its lower neighbours' rows.
  // Columns go in ascending order, so every upper part fills in ascending
  // order; only later columns write to row v, so cursor[v] still marks the
  // end of column v when its turn comes.
  Vertex* const slot = adj.data();
  for (std::size_t v = 0; v < rows; ++v) {
    const auto mirrored = narrow_cast<Vertex>(v);
    const std::int64_t end = base[v >> shift] + cursor[v];
    for (std::int64_t i = offsets[v]; i < end; ++i) {
      const auto u = static_cast<std::size_t>(slot[i]);
      slot[base[u >> shift] + cursor[u]++] = mirrored;
    }
  }
  return Graph(n, std::move(offsets), std::move(adj));
}

}  // namespace ssmis
