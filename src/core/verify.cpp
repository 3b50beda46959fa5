#include "core/verify.hpp"

#include <sstream>
#include <stdexcept>

#include "support/narrow.hpp"

namespace ssmis {

namespace {

void check_size(const Graph& g, const std::vector<char>& in_set) {
  if (in_set.size() != static_cast<std::size_t>(g.num_vertices()))
    throw std::invalid_argument("verify: membership vector size != num_vertices");
}

// Bits of the mask the MIS check works on.
constexpr char kMember = 1;
constexpr char kCovered = 2;  // a member or a neighbor of one

// The MIS check shared by is_mis and verify_mis_output. `mask` has kMember
// set exactly on the vertices listed in `members` (a vertex may be listed
// more than once). One pass over the members' rows marks each member and
// its neighbors kCovered and notes any member neighbor of a member; one
// scan of the mask then finds any vertex left uncovered. That costs
// O(n + sum of deg(u) over the members u) rather than O(n + m).
bool members_form_mis(const Graph& g, std::vector<char>& mask,
                      const std::vector<Vertex>& members) {
  bool clash = false;
  for (const Vertex u : members) {
    mask[static_cast<std::size_t>(u)] |= kCovered;
    g.for_each_neighbor(u, [&](Vertex v) {
      char& m = mask[static_cast<std::size_t>(v)];
      clash |= (m & kMember) != 0;
      m |= kCovered;
    });
  }
  char covered = kCovered;
  for (const char m : mask) covered &= m;
  return !clash && covered != 0;
}

}  // namespace

bool is_independent_set(const Graph& g, const std::vector<char>& in_set) {
  check_size(g, in_set);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (!in_set[static_cast<std::size_t>(u)]) continue;
    bool ok = true;
    g.for_each_neighbor(u, [&](Vertex v) {
      if (v > u && in_set[static_cast<std::size_t>(v)]) {
        ok = false;
        return false;
      }
      return true;
    });
    if (!ok) return false;
  }
  return true;
}

bool is_maximal(const Graph& g, const std::vector<char>& in_set) {
  check_size(g, in_set);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (in_set[static_cast<std::size_t>(u)]) continue;
    bool has_member_neighbor = false;
    g.for_each_neighbor(u, [&](Vertex v) {
      if (in_set[static_cast<std::size_t>(v)]) {
        has_member_neighbor = true;
        return false;
      }
      return true;
    });
    if (!has_member_neighbor) return false;
  }
  return true;
}

bool is_mis(const Graph& g, const std::vector<char>& in_set) {
  check_size(g, in_set);
  std::vector<char> mask(in_set.size());
  std::vector<Vertex> members;
  for (std::size_t u = 0; u < in_set.size(); ++u) {
    mask[u] = in_set[u] != 0 ? kMember : 0;
    if (mask[u]) members.push_back(narrow_cast<Vertex>(u));
  }
  return members_form_mis(g, mask, members);
}

std::vector<char> members_to_mask(Vertex n, const std::vector<Vertex>& members) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (Vertex u : members) {
    if (u < 0 || u >= n)
      throw std::out_of_range("members_to_mask: vertex out of range");
    mask[static_cast<std::size_t>(u)] = 1;
  }
  return mask;
}

bool is_independent_set(const Graph& g, const std::vector<Vertex>& members) {
  return is_independent_set(g, members_to_mask(g.num_vertices(), members));
}

bool is_maximal(const Graph& g, const std::vector<Vertex>& members) {
  return is_maximal(g, members_to_mask(g.num_vertices(), members));
}

bool is_mis(const Graph& g, const std::vector<Vertex>& members) {
  std::vector<char> mask = members_to_mask(g.num_vertices(), members);
  return members_form_mis(g, mask, members);
}

std::optional<std::string> find_mis_violation(const Graph& g,
                                              const std::vector<char>& in_set) {
  check_size(g, in_set);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (!in_set[static_cast<std::size_t>(u)]) continue;
    std::optional<std::string> violation;
    g.for_each_neighbor(u, [&](Vertex v) {
      if (v > u && in_set[static_cast<std::size_t>(v)]) {
        std::ostringstream oss;
        oss << "independence violated: members " << u << " and " << v
            << " are adjacent";
        violation = oss.str();
        return false;
      }
      return true;
    });
    if (violation) return violation;
  }
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (in_set[static_cast<std::size_t>(u)]) continue;
    bool has_member_neighbor = false;
    g.for_each_neighbor(u, [&](Vertex v) {
      if (in_set[static_cast<std::size_t>(v)]) {
        has_member_neighbor = true;
        return false;
      }
      return true;
    });
    if (!has_member_neighbor) {
      std::ostringstream oss;
      oss << "maximality violated: vertex " << u << " has no member neighbor";
      return oss.str();
    }
  }
  return std::nullopt;
}

void verify_mis_output(const Graph& g, const std::vector<Vertex>& claimed) {
  std::vector<char> mask = members_to_mask(g.num_vertices(), claimed);
  if (members_form_mis(g, mask, claimed)) return;
  // Only a failed check pays for the description.
  for (char& m : mask) m &= kMember;
  throw std::logic_error("process stabilized on a non-MIS: " +
                         find_mis_violation(g, mask).value());
}

std::vector<Vertex> greedy_mis(const Graph& g) {
  std::vector<char> blocked(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Vertex> mis;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (blocked[static_cast<std::size_t>(u)]) continue;
    mis.push_back(u);
    g.for_each_neighbor(u, [&](Vertex v) { blocked[static_cast<std::size_t>(v)] = 1; });
  }
  return mis;
}

}  // namespace ssmis
