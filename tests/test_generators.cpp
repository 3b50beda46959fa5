#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/geometric_skip.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "support/hash.hpp"

namespace ssmis {
namespace {

// Order-sensitive hash of the full CSR structure (n, per-row degrees and
// sorted adjacency): two graphs fingerprint equal iff operator== holds.
std::uint64_t fingerprint(const Graph& g) {
  std::uint64_t h = kFnv1aBasis;
  const std::int64_t n = g.num_vertices();
  h = fnv1a(h, &n, sizeof(n));
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.neighbors(u);
    const std::int64_t d = static_cast<std::int64_t>(nbrs.size());
    h = fnv1a(h, &d, sizeof(d));
    h = fnv1a(h, nbrs.data(), nbrs.size() * sizeof(Vertex));
  }
  return h;
}

TEST(Generators, CompleteGraph) {
  const Graph g = gen::complete(6);
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(g.max_degree(), 5);
  for (Vertex u = 0; u < 6; ++u)
    for (Vertex v = 0; v < 6; ++v) {
      if (u != v) {
        EXPECT_TRUE(g.has_edge(u, v));
      }
    }
}

TEST(Generators, CompleteEdgeCases) {
  EXPECT_EQ(gen::complete(0).num_vertices(), 0);
  EXPECT_EQ(gen::complete(1).num_edges(), 0);
  EXPECT_EQ(gen::complete(2).num_edges(), 1);
}

TEST(Generators, Path) {
  const Graph g = gen::path(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_TRUE(is_tree(g));
}

TEST(Generators, CycleDegreesAllTwo) {
  const Graph g = gen::cycle(7);
  EXPECT_EQ(g.num_edges(), 7);
  for (Vertex u = 0; u < 7; ++u) EXPECT_EQ(g.degree(u), 2);
}

TEST(Generators, CycleSmallCases) {
  EXPECT_EQ(gen::cycle(2).num_edges(), 1);  // degenerate: a single edge
  EXPECT_EQ(gen::cycle(3).num_edges(), 3);
}

TEST(Generators, Star) {
  const Graph g = gen::star(9);
  EXPECT_EQ(g.degree(0), 8);
  for (Vertex u = 1; u < 9; ++u) EXPECT_EQ(g.degree(u), 1);
  EXPECT_TRUE(is_tree(g));
  EXPECT_TRUE(has_diameter_at_most_2(g));
}

TEST(Generators, CompleteBipartite) {
  const Graph g = gen::complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(triangle_count(g), 0);
}

TEST(Generators, DisjointCliques) {
  const Graph g = gen::disjoint_cliques(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 4 * 10);
  EXPECT_EQ(num_components(g), 4);
  EXPECT_FALSE(g.has_edge(0, 5));  // across cliques
  EXPECT_TRUE(g.has_edge(5, 9));   // within a clique
}

TEST(Generators, Grid) {
  const Graph g = gen::grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 4 * 2);  // horizontal + vertical
  EXPECT_LE(g.max_degree(), 4);
}

TEST(Generators, TorusIsFourRegular) {
  const Graph g = gen::torus(4, 5);
  for (Vertex u = 0; u < g.num_vertices(); ++u) EXPECT_EQ(g.degree(u), 4);
  EXPECT_EQ(g.num_edges(), 2 * 20);
}

TEST(Generators, Hypercube) {
  const Graph g = gen::hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  for (Vertex u = 0; u < 16; ++u) EXPECT_EQ(g.degree(u), 4);
  EXPECT_EQ(diameter(g).value(), 4);
}

TEST(Generators, BinaryTree) {
  const Graph g = gen::binary_tree(15);
  EXPECT_TRUE(is_tree(g));
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_LE(g.max_degree(), 3);
}

TEST(Generators, Caterpillar) {
  const Graph g = gen::caterpillar(5, 3);
  EXPECT_EQ(g.num_vertices(), 5 + 15);
  EXPECT_TRUE(is_tree(g));
}

TEST(Generators, Barbell) {
  const Graph g = gen::barbell(6);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 2 * 15 + 1);
  EXPECT_EQ(num_components(g), 1);
}

TEST(Generators, GnpExtremes) {
  EXPECT_EQ(gen::gnp(50, 0.0, 1).num_edges(), 0);
  EXPECT_EQ(gen::gnp(50, 1.0, 1).num_edges(), 50 * 49 / 2);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  // n=400, p=0.1: mean ~7980, sd ~85; allow 6 sigma.
  const Graph g = gen::gnp(400, 0.1, 12345);
  const double expected = 0.1 * 400 * 399 / 2.0;
  const double sigma = std::sqrt(expected * 0.9);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 6 * sigma);
}

TEST(Generators, GnpDeterministicPerSeed) {
  EXPECT_EQ(gen::gnp(100, 0.05, 7), gen::gnp(100, 0.05, 7));
  EXPECT_FALSE(gen::gnp(100, 0.05, 7) == gen::gnp(100, 0.05, 8));
}

TEST(Generators, GnpRejectsBadP) {
  EXPECT_THROW(gen::gnp(10, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(gen::gnp(10, 1.1, 1), std::invalid_argument);
}

TEST(Generators, GnmExactEdgeCount) {
  const Graph g = gen::gnm(60, 140, 3);
  EXPECT_EQ(g.num_vertices(), 60);
  EXPECT_EQ(g.num_edges(), 140);
}

TEST(Generators, GnmFullRange) {
  EXPECT_EQ(gen::gnm(5, 10, 1).num_edges(), 10);  // complete
  EXPECT_EQ(gen::gnm(5, 0, 1).num_edges(), 0);
  EXPECT_THROW(gen::gnm(5, 11, 1), std::invalid_argument);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = gen::random_tree(100, seed);
    EXPECT_TRUE(is_tree(g)) << "seed " << seed;
  }
}

TEST(Generators, RandomTreeSmall) {
  EXPECT_EQ(gen::random_tree(0, 1).num_vertices(), 0);
  EXPECT_EQ(gen::random_tree(1, 1).num_edges(), 0);
  EXPECT_EQ(gen::random_tree(2, 1).num_edges(), 1);
  EXPECT_TRUE(is_tree(gen::random_tree(3, 1)));
}

TEST(Generators, RandomRecursiveTreeIsTree) {
  const Graph g = gen::random_recursive_tree(200, 9);
  EXPECT_TRUE(is_tree(g));
}

TEST(Generators, ForestUnionArboricityBounded) {
  const Graph g = gen::forest_union(150, 3, 11);
  EXPECT_LE(g.num_edges(), 3 * 149);
  // Degeneracy-based arboricity upper bound should be small.
  EXPECT_LE(arboricity_bounds(g).upper, 6);
}

TEST(Generators, RandomRegularDegreesAtMostD) {
  const Graph g = gen::random_regular(100, 6, 21);
  EXPECT_LE(g.max_degree(), 6);
  // Configuration model drops few edges: average degree close to d.
  EXPECT_GT(g.average_degree(), 5.0);
}

TEST(Generators, RandomRegularOddProductThrows) {
  EXPECT_THROW(gen::random_regular(5, 3, 1), std::invalid_argument);
}

TEST(Generators, RandomGeometricSymmetricAndDeterministic) {
  const Graph a = gen::random_geometric(200, 0.1, 5);
  const Graph b = gen::random_geometric(200, 0.1, 5);
  EXPECT_EQ(a, b);
}

TEST(Generators, RandomGeometricRadiusMonotone) {
  const Graph small = gen::random_geometric(300, 0.05, 5);
  const Graph large = gen::random_geometric(300, 0.15, 5);
  EXPECT_LT(small.num_edges(), large.num_edges());
}

TEST(Generators, RandomGeometricExtremes) {
  EXPECT_EQ(gen::random_geometric(50, 0.0, 1).num_edges(), 0);
  const Graph g = gen::random_geometric(50, 2.0, 1);  // radius covers unit square
  EXPECT_EQ(g.num_edges(), 50 * 49 / 2);
}

TEST(Generators, SmallWorldBasic) {
  const Graph g = gen::small_world(100, 3, 0.1, 2);
  EXPECT_EQ(g.num_vertices(), 100);
  // Ring lattice has 3n edges; rewiring preserves the count approximately
  // (rare rewire failures may drop a few).
  EXPECT_GE(g.num_edges(), 290);
  EXPECT_LE(g.num_edges(), 300);
}

TEST(Generators, SmallWorldBetaZeroIsRingLattice) {
  const Graph g = gen::small_world(20, 2, 0.0, 3);
  for (Vertex u = 0; u < 20; ++u) EXPECT_EQ(g.degree(u), 4);
}

// ---------------------------------------------------------------------------
// Fixed-seed byte-identity regressions for the streaming-builder port.
//
// Every fingerprint below except two was captured from the pre-streaming
// GraphBuilder implementations, so these tests pin the CsrBuilder port to
// the historical outputs exactly. The two exceptions carry intentional,
// documented stream changes (see CHANGES.md):
//   * forest_union — per-tree seeds now run through SplitMix64 (bugfix: the
//     additive golden-ratio scheme correlated nearby base seeds);
//   * dense gnm (2m > max_m) — now complement-sampled (bugfix: rejection
//     sampling was coupon-collector-degenerate near max_m).
// Their fingerprints were re-captured from the fixed implementations and
// pin determinism going forward.
//
// The "bench" entries are the G(n,p) graphs perfbench generates for its
// workload seed 1 (its derive(1, 1) and derive(1, 4) seeds), pinned with
// the n <= 2 corner cases before gnp moved to the one-pass column build.
// ---------------------------------------------------------------------------

TEST(GeneratorGoldens, FixedSeedByteIdentity) {
  const std::uint64_t bench_s1 = splitmix64_mix(0x9E3779B97F4A7C15ULL + 1);
  const std::uint64_t bench_s4 = splitmix64_mix(0x9E3779B97F4A7C15ULL + 4);
  const std::map<std::string, std::uint64_t> golden = {
      {"gnp_n1000_p0.01_s7", 0x7edf8714190be531ULL},
      {"gnp_n500_p0.3_s42", 0x8ca1f45597c3eb77ULL},
      {"gnp_n2000_p0.002_s1", 0x91588948a3fa7ed2ULL},
      {"gnm_n200_m1500_s3", 0xeb51b6277acf6669ULL},
      {"gnm_n100_m50_s9", 0x71cf8e575aaa2f1fULL},
      {"random_tree_n1000_s11", 0x2b8f116eb56d210bULL},
      {"random_tree_n3_s5", 0x18eb6066171f6db1ULL},
      {"random_recursive_tree_n500_s13", 0x38c55f70fbdb1608ULL},
      {"random_regular_n400_d6_s21", 0xed15c44084d9f490ULL},
      {"complete_n50", 0x41d4acb73f6b29e0ULL},
      {"path_n100", 0x335bece25ec73584ULL},
      {"cycle_n100", 0xfc4e5788f8413a67ULL},
      {"star_n100", 0x6666916563c741c5ULL},
      {"complete_bipartite_20_30", 0xdf44b252bf413191ULL},
      {"disjoint_cliques_5_8", 0x6227a1a51bd208cbULL},
      {"grid_12_17", 0x0e814bf3f541ff64ULL},
      {"torus_9_11", 0xac9d84a3211fb764ULL},
      {"hypercube_7", 0x01ac5573205e3b63ULL},
      {"binary_tree_n127", 0x93dd5056fb6e47d1ULL},
      {"caterpillar_10_4", 0x8edd93a4b0782128ULL},
      {"barbell_12", 0x089af3366272b7bcULL},
      {"random_geometric_n300_r0.1_s5", 0xc1c00ece67b30bb7ULL},
      {"small_world_n200_k3_b0.1_s2", 0xe7a58bfda06b25adULL},
      // Intentional stream changes (bugfixes), re-captured:
      {"forest_union_n300_k3_s17", 0xe9e6fe0f24650fbaULL},
      {"gnm_dense_n60_m1600_s5", 0x4d8c016a962eaca2ULL},
      // The benchmark's graphs and the smallest n:
      {"gnp_n32768_p8/(n-1)_bench", 0x0bdec1673c6eba28ULL},
      {"gnp_n4096_pln(n)/n_bench", 0x3e68b32536748238ULL},
      {"gnp_n1024_p0.25_bench", 0x5665e5cdf0036ba7ULL},
      {"gnp_n0_p0.5_s1", 0x47fe0d7eaf8e51e3ULL},
      {"gnp_n1_p0.5_s1", 0x5420115802dc1402ULL},
      {"gnp_n2_p0.5_s1", 0x8b038a41009b3de1ULL},
      {"gnp_n2_p0.5_s3", 0x3f7d3abc7dd1f930ULL},
      // Skips that take the exact fallback, and a graph of many of the
      // one-pass layout's cursor blocks (2^10 rows each):
      {"gnp_n2000_p1e-300_s3", 0x4677e41018deadfaULL},
      {"gnp_n2000_p1e-9_s3", 0x4677e41018deadfaULL},
      {"gnp_n120_p0.999999_s3", 0x44924154435f52ffULL},
      {"gnp_n300000_p8/(n-1)_s5", 0x92f1d3dc7316e882ULL},
  };
  const std::map<std::string, Graph> actual = {
      {"gnp_n1000_p0.01_s7", gen::gnp(1000, 0.01, 7)},
      {"gnp_n500_p0.3_s42", gen::gnp(500, 0.3, 42)},
      {"gnp_n2000_p0.002_s1", gen::gnp(2000, 0.002, 1)},
      {"gnm_n200_m1500_s3", gen::gnm(200, 1500, 3)},
      {"gnm_n100_m50_s9", gen::gnm(100, 50, 9)},
      {"random_tree_n1000_s11", gen::random_tree(1000, 11)},
      {"random_tree_n3_s5", gen::random_tree(3, 5)},
      {"random_recursive_tree_n500_s13", gen::random_recursive_tree(500, 13)},
      {"random_regular_n400_d6_s21", gen::random_regular(400, 6, 21)},
      {"complete_n50", gen::complete(50)},
      {"path_n100", gen::path(100)},
      {"cycle_n100", gen::cycle(100)},
      {"star_n100", gen::star(100)},
      {"complete_bipartite_20_30", gen::complete_bipartite(20, 30)},
      {"disjoint_cliques_5_8", gen::disjoint_cliques(5, 8)},
      {"grid_12_17", gen::grid(12, 17)},
      {"torus_9_11", gen::torus(9, 11)},
      {"hypercube_7", gen::hypercube(7)},
      {"binary_tree_n127", gen::binary_tree(127)},
      {"caterpillar_10_4", gen::caterpillar(10, 4)},
      {"barbell_12", gen::barbell(12)},
      {"random_geometric_n300_r0.1_s5", gen::random_geometric(300, 0.1, 5)},
      {"small_world_n200_k3_b0.1_s2", gen::small_world(200, 3, 0.1, 2)},
      {"forest_union_n300_k3_s17", gen::forest_union(300, 3, 17)},
      {"gnm_dense_n60_m1600_s5", gen::gnm(60, 1600, 5)},
      {"gnp_n32768_p8/(n-1)_bench", gen::gnp(32768, 8.0 / 32767.0, bench_s1)},
      {"gnp_n4096_pln(n)/n_bench",
       gen::gnp(4096, std::log(4096.0) / 4096.0, bench_s1)},
      {"gnp_n1024_p0.25_bench", gen::gnp(1024, 0.25, bench_s4)},
      {"gnp_n0_p0.5_s1", gen::gnp(0, 0.5, 1)},
      {"gnp_n1_p0.5_s1", gen::gnp(1, 0.5, 1)},
      {"gnp_n2_p0.5_s1", gen::gnp(2, 0.5, 1)},
      {"gnp_n2_p0.5_s3", gen::gnp(2, 0.5, 3)},
      {"gnp_n2000_p1e-300_s3", gen::gnp(2000, 1e-300, 3)},
      {"gnp_n2000_p1e-9_s3", gen::gnp(2000, 1e-9, 3)},
      {"gnp_n120_p0.999999_s3", gen::gnp(120, 0.999999, 3)},
      {"gnp_n300000_p8/(n-1)_s5", gen::gnp(300000, 8.0 / 299999.0, 5)},
  };
  ASSERT_EQ(golden.size(), actual.size());
  for (const auto& [name, g] : actual) {
    EXPECT_EQ(fingerprint(g), golden.at(name)) << name;
  }
}

// --- Bugfix regressions -----------------------------------------------------

TEST(Generators, GnmDenseTerminatesWithExactCount) {
  // Near-complete G(n,m): the historical rejection sampler needed ~m ln m
  // draws here; the complement sampler is O(max_m). n=80 -> max_m=3160.
  const Graph g = gen::gnm(80, 3150, 4);
  EXPECT_EQ(g.num_edges(), 3150);
  EXPECT_EQ(gen::gnm(80, 3160, 4).num_edges(), 3160);  // exactly complete
  EXPECT_EQ(fingerprint(gen::gnm(80, 3150, 4)), fingerprint(gen::gnm(80, 3150, 4)));
  EXPECT_NE(fingerprint(gen::gnm(80, 3150, 4)), fingerprint(gen::gnm(80, 3150, 5)));
}

TEST(Generators, ForestUnionNearbySeedsShareNoTree) {
  // Regression for the additive per-tree seeding bug: with tree i seeded at
  // seed + i * golden, forests at base seeds s and s + golden shared k-1
  // trees. SplitMix64-mixed per-tree seeds must decorrelate them entirely.
  const std::uint64_t golden_gamma = 0x9e3779b97f4a7c15ULL;
  const int k = 3;
  const Vertex n = 200;
  const Graph a = gen::forest_union(n, k, 1000);
  const Graph b = gen::forest_union(n, k, 1000 + golden_gamma);
  EXPECT_FALSE(a == b);
  // Count shared edges: independent forests on n vertices share only a few
  // edges by chance (expected ~2k^2 at degree ~2); the buggy scheme shared
  // ~(k-1)(n-1) of them.
  const auto edges_a = a.edge_list();
  int shared = 0;
  for (const auto& [u, v] : edges_a)
    if (b.has_edge(u, v)) ++shared;
  EXPECT_LT(shared, n / 4) << "nearby-seed forests still share tree structure";
}

TEST(Generators, GnpExtremePDeathFree) {
  // Denormal-small and near-1 p must not produce NaN skips, negative
  // indices, or non-termination (the historical skip-sampling cast a
  // possibly-NaN double straight to int64 — UB).
  const Graph tiny = gen::gnp(2000, 1e-300, 3);
  EXPECT_EQ(tiny.num_edges(), 0);
  const Graph small = gen::gnp(2000, 1e-9, 3);
  EXPECT_LE(small.num_edges(), 4);
  const Graph nearly = gen::gnp(120, 0.999999, 3);
  const std::int64_t max_m = 120 * 119 / 2;
  EXPECT_GE(nearly.num_edges(), max_m - 2);
  EXPECT_LE(nearly.num_edges(), max_m);
  // Determinism across the hardened path.
  EXPECT_EQ(gen::gnp(120, 0.999999, 3), gen::gnp(120, 0.999999, 3));
}

// fast_geometric_skip must equal its definition, geometric_skip, on every
// draw of Xoshiro256::next_double: 10^7 draws for each p below, from
// denormal-adjacent to near 1, plus both extremes of next_double. The
// certified value must agree wherever it is given; where it is not, the
// fallback is the definition itself. At p = 1e-300 every quotient is huge,
// so every draw falls back; at p = 1e-9 the quotients near 10^9 land inside
// the margin often enough to be seen; elsewhere the fast path carries
// almost every draw.
TEST(GeometricSkip, FastSkipEqualsTheDefinition) {
  constexpr std::int64_t kDraws = 10'000'000;
  const double ps[] = {1e-300, 1e-9, 8.0 / 32767.0, std::log(4096.0) / 4096.0,
                       0.25,   0.5,  0.999999};
  std::uint64_t seed = 0x5eed;
  for (const double p : ps) {
    const double log_1mp = std::log1p(-p);
    Xoshiro256 rng(seed++);
    std::int64_t fallbacks = 0;
    std::int64_t mismatches = 0;
    for (std::int64_t i = 0; i < kDraws; ++i) {
      const double r = rng.next_double();
      const std::int64_t certified = gen::certified_skip(r, log_1mp);
      if (certified < 0) {
        ++fallbacks;
      } else if (certified != gen::geometric_skip(r, log_1mp) && ++mismatches == 1) {
        ADD_FAILURE() << "p " << p << " r " << r << " certified " << certified
                      << " definition " << gen::geometric_skip(r, log_1mp);
      }
    }
    EXPECT_EQ(mismatches, 0) << "p " << p;
    if (p == 1e-300) {
      EXPECT_EQ(fallbacks, kDraws);
    } else {
      EXPECT_LT(fallbacks, kDraws / 100) << "p " << p;
      if (p == 1e-9) {
        EXPECT_GT(fallbacks, 0);
      }
    }
    for (const double r : {0.0, 1.0 - 0x1p-53, rng.next_double()})
      EXPECT_EQ(gen::fast_geometric_skip(r, log_1mp), gen::geometric_skip(r, log_1mp))
          << "p " << p << " r " << r;
    // r = 0 is an exact integer quotient, so it is never certified.
    EXPECT_EQ(gen::certified_skip(0.0, log_1mp), -1) << "p " << p;
  }
  // The margin itself: at p = 1/2, r = 3/4 + 2^-50 gives a quotient of
  // 2 + ~2^-47.5, inside the margin (3 * 2^-40) around 2, so it is left to
  // the definition; r = 0.6 gives 1.32, which is certified.
  const double log_half = std::log1p(-0.5);
  EXPECT_EQ(gen::certified_skip(0.75 + 0x1p-50, log_half), -1);
  EXPECT_EQ(gen::fast_geometric_skip(0.75 + 0x1p-50, log_half), 2);
  EXPECT_EQ(gen::certified_skip(0.6, log_half), 1);
}

}  // namespace
}  // namespace ssmis
