#include "core/engine.hpp"

#include <algorithm>

namespace ssmis {

void VertexWorklist::reset(Vertex n) {
  items_.clear();
  pos_.assign(static_cast<std::size_t>(n), -1);
}

void VertexWorklist::assign(std::span<const std::uint8_t> flags, std::uint8_t bit) {
  const std::size_t n = flags.size();
  pos_.resize(n);
  // Each vertex is stored one past the members so far; the spare slot takes
  // the stores after the last member.
  const auto members = std::count_if(flags.begin(), flags.end(),
                                     [bit](std::uint8_t f) { return (f & bit) != 0; });
  items_.resize(static_cast<std::size_t>(members) + 1);
  std::size_t len = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const bool member = (flags[u] & bit) != 0;
    items_[len] = narrow_cast<Vertex>(u);
    pos_[u] = member ? narrow_cast<Vertex>(len) : -1;
    len += static_cast<std::size_t>(member);
  }
  items_.resize(len);
}

std::vector<Vertex> VertexWorklist::sorted() const {
  std::vector<Vertex> out = items_;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ssmis
