// Seeded R3 violations: 64-bit values narrowed with a raw static_cast
// instead of the checked ssmis::narrow_cast. Also exercises the
// reason-required contract: the allow() comment without a reason on the
// last violation must NOT suppress it.
#include <cstdint>
#include <vector>

using Vertex = std::int32_t;

Vertex worklist_size(const std::vector<Vertex>& items) {
  return static_cast<Vertex>(items.size());  // R3: .size() is 64-bit
}

int chunk_count(std::int64_t endpoints, std::int64_t per_chunk) {
  return static_cast<int>(endpoints / per_chunk);  // R3: int64 source
}

Vertex degree_of(const std::vector<std::int64_t>& offsets, Vertex u) {
  return static_cast<Vertex>(offsets[u + 1] - offsets[u]);  // R3: offsets
}

struct CliArgs {
  std::int64_t get_int(const char* name, std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi) const;
};

int trials_flag(const CliArgs& args) {
  return static_cast<int>(args.get_int("trials", 1, 1, 1000));  // R3: get_int is 64-bit
}

std::uint32_t row_bytes(std::size_t payload_bytes) {
  // An allow() with no reason does not suppress — the finding stands.
  return static_cast<std::uint32_t>(payload_bytes);  // ssmis-lint: allow(R3)
}

std::int64_t widen(Vertex u) {
  return static_cast<std::int64_t>(u);  // ok: widening, never flagged
}
