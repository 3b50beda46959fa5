// Skip lengths for G(n,p) skip sampling (gen::gnp).
//
// The gap between two present edges of G(n,p), in pairs, is Geometric(p):
// for a uniform r in [0, 1) it is floor(ln(1 − r) / ln(1 − p)).
// `geometric_skip` is the definition every G(n,p) stream is pinned to.
// `fast_geometric_skip` returns the same integer for every draw of
// Xoshiro256::next_double, about twice as fast: it takes the cheaper libm
// `log` of the exact 1 − r, and falls back to `geometric_skip` whenever the
// quotient is too close to an integer for the two to be certain to agree.
#pragma once

#include <cmath>
#include <cstdint>

namespace ssmis {
namespace gen {

// Geometric(p) skip length for G(n,p) skip-sampling, hardened against the
// floating-point edge cases: r at the extremes of next_double and denormal-
// small p can push log1p(-r)/log1p(-p) to -0.0, inf, or (0/-0) NaN; the
// clamps map every non-finite or negative value to a safe skip instead of
// feeding it to the int64 cast (UB on NaN/overflow). The 1e18 cap matches
// the pre-hardening code so in-range seeds keep byte-identical streams.
// log_1mp is log1p(-p) for the stream's p in (0, 1).
inline std::int64_t geometric_skip(double r, double log_1mp) {
  const double skip_f = std::floor(std::log1p(-r) / log_1mp);
  if (!(skip_f > 0.0)) return 0;  // NaN, -0.0, and negatives land here
  if (skip_f >= 1e18) return static_cast<std::int64_t>(1e18);
  return static_cast<std::int64_t>(skip_f);
}

// geometric_skip(r, log_1mp) when this cheaper evaluation can certify it,
// else -1. Requires r to be a multiple of 2^-53 in [0, 1), which is what
// Xoshiro256::next_double returns; then 1 − r is exactly a double.
//
// Why it is exact: q = log(1 − r) / log_1mp and geometric_skip's
// log1p(−r) / log_1mp both approximate ln(1 − r) / log_1mp. libm's log and
// log1p are each within a couple of ulps of ln(1 − r), and each division
// adds half an ulp, so the two quotients differ by at most ~2^-49·q. A
// quotient whose fractional part is farther than 2^-40·(q + 1) from an
// integer (about a thousand times that gap) therefore truncates to the
// same integer as the other one. log(1 − r) ≤ 0 and log_1mp < 0, so q ≥ 0
// and truncation is floor. NaN, infinite and huge quotients (q ≥ 2^39,
// where the margin exceeds ½) and the exact integers (r = 0 gives q = 0)
// are not certified; geometric_skip owns their clamps.
inline std::int64_t certified_skip(double r, double log_1mp) {
  const double q = std::log(1.0 - r) / log_1mp;
  if (!(q >= 0.0 && q < 0x1p39)) return -1;  // NaN lands here too
  const auto skip = static_cast<std::int64_t>(q);
  const double frac = q - static_cast<double>(skip);
  const double margin = 0x1p-40 * (q + 1.0);
  return frac > margin && 1.0 - frac > margin ? skip : -1;
}

// geometric_skip(r, log_1mp) for r a multiple of 2^-53 in [0, 1): the
// certified value, or the definition itself where the certificate fails.
inline std::int64_t fast_geometric_skip(double r, double log_1mp) {
  const std::int64_t skip = certified_skip(r, log_1mp);
  return skip >= 0 ? skip : geometric_skip(r, log_1mp);
}

}  // namespace gen
}  // namespace ssmis
