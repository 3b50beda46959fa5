// Skip lengths for G(n,p) skip sampling (gen::gnp).
//
// The gap between two present edges of G(n,p), in pairs, is Geometric(p):
// for a uniform r in [0, 1) it is floor(ln(1 − r) / ln(1 − p)).
// `geometric_skip` is the definition every G(n,p) stream is pinned to.
// `SkipBlock` returns the same integer for every draw of
// Xoshiro256::next_double, faster: it draws kSkipBlock uniforms at a time,
// takes log(1 − r) of the whole block with `block_log`, a table-free log
// the compiler vectorizes, and falls back to `geometric_skip` whenever the
// quotient is too close to an integer for the two to be certain to agree.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "rng/xoshiro256.hpp"

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

// ln(x) for a positive normal double x, within 1 ulp of libm's log, and
// exactly +0 at x = 1. It is fdlibm's log (as FreeBSD and musl write it)
// without its branches and tables: the bits of x are shifted so that
// x = 2^k·(1 + f) with 1 + f in [√2/2, √2), found with integer operations
// only; s = f/(2 + f), and ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²)) with
// fdlibm's Lg1–Lg7 minimax polynomial R. k becomes a double through the
// 2^52 trick (its biased exponent placed under the exponent of 2^52), as
// SSE2 has no packed int64-to-double conversion. Every step is a plain
// arithmetic or bit operation, so a loop over a block vectorizes at -O3
// with no flag and no library. Zero, negative, subnormal and non-finite x
// are outside its domain; SkipBlock only passes 1 − r ∈ [2^-53, 1].
inline double block_log(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42fee00000
  constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef35793c76
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  // √2/2 truncated to its high word. Adding 1.0's bits minus it to x's
  // carries into the exponent field exactly when x's mantissa is at or
  // above √2's, so the shifted exponent is k, and the shifted mantissa
  // plus it again is 1 + f.
  constexpr std::uint64_t kSqrtHalf = 0x3fe6a09e00000000ULL;
  constexpr std::uint64_t kOne = 0x3ff0000000000000ULL;
  constexpr std::uint64_t kMantissa = 0x000fffffffffffffULL;
  constexpr std::uint64_t kTwo52 = 0x4330000000000000ULL;
  const std::uint64_t shifted = std::bit_cast<std::uint64_t>(x) + (kOne - kSqrtHalf);
  // The biased exponent e of the shifted bits is below 2^11, so 2^52 + e is
  // exact and k = e − 1023 is one exact subtraction.
  const double k = std::bit_cast<double>((shifted >> 52) | kTwo52) - (0x1p52 + 1023.0);
  const double f = std::bit_cast<double>((shifted & kMantissa) + kSqrtHalf) - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  return s * (hfsq + (t1 + t2)) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

// geometric_skip(r, log_1mp) when the quotient log_1mr / log_1mp can
// certify it, else -1. log_1mr is block_log(1 − r) for r a multiple of
// 2^-53 in [0, 1), which is what Xoshiro256::next_double returns; then
// 1 − r is exactly a double in [2^-53, 1].
//
// Why it is exact: q = block_log(1 − r) / log_1mp and geometric_skip's
// log1p(−r) / log_1mp both approximate ln(1 − r) / log_1mp. The premise
// is that block_log is within 1 ulp of libm's log, itself within a
// fraction of an ulp of ln(1 − r); tests/test_generators.cpp checks the
// 1 ulp over 10^7 draws and at both ends of next_double's range. With
// log1p within a couple of ulps and half an ulp per division, the two
// quotients differ by at most ~2^-49·q. A quotient whose fractional part
// is farther than 2^-40·(q + 1) from an integer (about a thousand times
// that gap) therefore truncates to the same integer as the other one.
// block_log(1 − r) ≤ 0 and log_1mp < 0, so q ≥ 0 and truncation is floor.
// NaN, infinite and huge quotients (q ≥ 2^39, where the margin exceeds ½)
// and the exact integers (r = 0 gives q = 0) are not certified;
// geometric_skip owns their clamps.
inline std::int64_t certified_skip(double log_1mr, double log_1mp) {
  const double q = log_1mr / log_1mp;
  if (!(q >= 0.0 && q < 0x1p39)) return -1;  // NaN lands here too
  const auto skip = static_cast<std::int64_t>(q);
  const double frac = q - static_cast<double>(skip);
  const double margin = 0x1p-40 * (q + 1.0);
  return frac > margin && 1.0 - frac > margin ? skip : -1;
}

// Draws per block: enough to amortize the vectorized log's loop, in a
// 4 KB frame. Draws left over in a stream's last block go unused.
inline constexpr int kSkipBlock = 256;

// The next kSkipBlock draws of a stream and their logs, consumed in order.
struct SkipBlock {
  double r[kSkipBlock];
  double log_1mr[kSkipBlock];

  // Takes the stream's next kSkipBlock draws, then their logs in one loop.
  void fill(Xoshiro256& rng) {
    for (double& x : r) x = rng.next_double();
    for (int i = 0; i < kSkipBlock; ++i) log_1mr[i] = block_log(1.0 - r[i]);
  }

  // geometric_skip(r[i], log_1mp): the certified value, or the definition
  // itself where the certificate fails.
  std::int64_t skip(int i, double log_1mp) const {
    const std::int64_t certified = certified_skip(log_1mr[i], log_1mp);
    return certified >= 0 ? certified : geometric_skip(r[i], log_1mp);
  }
};

}  // namespace gen
}  // namespace ssmis
