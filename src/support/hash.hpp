// Shared non-cryptographic hashing primitives (the .ssg checksums, exp_scale's
// reload receipt and the test-side fingerprints build on these; keep them in
// sync by reuse, not by copying).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ssmis {

inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

// Folds `bytes` bytes at `data` into the running FNV-1a state `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

// XXH64 (Yann Collet's xxHash, 64-bit variant) of `bytes` bytes at `data`
// under `seed`: bit-identical to libxxhash's XXH64 on little-endian hosts,
// the only hosts the .ssg format targets. Chaining (the previous result as
// the next seed) hashes several arrays without concatenating them.
inline std::uint64_t xxh64(const void* data, std::size_t bytes, std::uint64_t seed) {
  constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ULL, k2 = 0xC2B2AE3D27D4EB4FULL,
                          k3 = 0x165667B19E3779F9ULL, k4 = 0x85EBCA77C2B2AE63ULL,
                          k5 = 0x27D4EB2F165667C5ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  const auto word = [](const unsigned char* at) {
    std::uint64_t w = 0;
    std::memcpy(&w, at, sizeof(w));
    return w;
  };
  const auto mix = [](std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * k2, 31) * k1;
  };
  std::uint64_t h = seed + k5;
  if (bytes >= 32) {
    std::uint64_t lane[4] = {seed + k1 + k2, seed + k2, seed, seed - k1};
    for (; end - p >= 32; p += 32)
      for (std::size_t i = 0; i < 4; ++i) lane[i] = mix(lane[i], word(p + 8 * i));
    h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
        std::rotl(lane[3], 18);
    for (const std::uint64_t v : lane) h = (h ^ mix(0, v)) * k1 + k4;
  }
  h += bytes;
  for (; end - p >= 8; p += 8) h = std::rotl(h ^ mix(0, word(p)), 27) * k1 + k4;
  if (end - p >= 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    h = std::rotl(h ^ (w * k1), 23) * k2 + k3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * k5), 11) * k1;
  h = (h ^ (h >> 33)) * k2;
  h = (h ^ (h >> 29)) * k3;
  return h ^ (h >> 32);
}

}  // namespace ssmis
