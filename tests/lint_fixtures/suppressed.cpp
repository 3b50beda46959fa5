// Suppression fixture: every violation here carries a reasoned
// `ssmis-lint: allow(...)` comment, so the file must lint clean — and the
// self-test re-lints it with suppressions ignored to prove the violations
// are real (both directions, or the allow() machinery is dead).
#include <cstdint>
#include <thread>
#include <vector>

using Vertex = std::int32_t;

int default_threads() {
  // ssmis-lint: allow(R2) fixture: CLI default only, never a trajectory input
  return static_cast<int>(std::thread::hardware_concurrency());
}

Vertex raw_size(const std::vector<Vertex>& items) {
  return static_cast<Vertex>(items.size());  // ssmis-lint: allow(R3) fixture: count bounded by construction
}
