#include "graph/csr_builder.hpp"

#include <algorithm>

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
                                  std::vector<Vertex> upper,
                                  std::vector<Vertex> adj) {
  const std::int64_t m = offsets[static_cast<std::size_t>(n)];
  adj.resize(2 * static_cast<std::size_t>(m));

  // Row v starts at its column's stream start plus the upper neighbours of
  // the rows before it, so no column moves left, and the columns still to
  // move all end at or before its start: moving the last column first never
  // overwrites one still to move. Each row's upper part begins where its
  // column ends, which is where upper[v] now points, relative to the row.
  std::int64_t upper_before = m;  // upper neighbours of rows < v
  std::int64_t column_end = m;
  for (std::size_t v = static_cast<std::size_t>(n); v-- > 0;) {
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
  offsets[static_cast<std::size_t>(n)] = 2 * m;

  // Mirror each column into the upper parts of its lower neighbours' rows.
  // Columns go in ascending order, so every upper part fills in ascending
  // order; only later columns write to row v, so upper[v] still is the
  // length of column v when its turn comes.
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    const std::int64_t row_start = offsets[v];
    const std::int64_t lower_end = row_start + upper[v];
    for (std::int64_t i = row_start; i < lower_end; ++i) {
      const auto u = static_cast<std::size_t>(adj[static_cast<std::size_t>(i)]);
      adj[static_cast<std::size_t>(offsets[u] + upper[u]++)] = narrow_cast<Vertex>(v);
    }
  }
  return Graph(n, std::move(offsets), std::move(adj));
}

}  // namespace ssmis
