#include "core/engine.hpp"

#include <algorithm>

namespace ssmis {

void VertexWorklist::assign(std::span<const std::uint8_t> flags, std::uint8_t mask,
                            std::uint8_t value) {
  const std::size_t n = flags.size();
  pos_.resize(n);
  // Each vertex is stored one past the members so far; the spare slot takes
  // the stores after the last member. -!member is 0 for a member and all
  // ones otherwise, so pos_ gets len or -1 without a branch on the bits,
  // which a random start would mispredict about half the time.
  const auto is_member = [mask, value](std::uint8_t f) { return (f & mask) == value; };
  const auto members = std::count_if(flags.begin(), flags.end(), is_member);
  items_.resize(static_cast<std::size_t>(members) + 1);
  std::size_t len = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const bool member = is_member(flags[u]);
    items_[len] = narrow_cast<Vertex>(u);
    pos_[u] = narrow_cast<Vertex>(len) | -static_cast<Vertex>(!member);
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
