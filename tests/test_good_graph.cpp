#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/good_graph.hpp"

namespace ssmis {
namespace {

TEST(GoodGraph, P5ExactOnKnownGraphs) {
  // K_{3,7}: two left vertices share all 7 right neighbors; bound is
  // max(6*10*p^2, 4 ln 10). With p = 0.5 bound = 15 -> holds; with p = 0.1
  // bound = 4 ln 10 ≈ 9.2 -> holds; engineered violation below.
  const Graph g = gen::complete_bipartite(3, 7);
  EXPECT_TRUE(check_p5(g, 0.5));
  // A graph with 40 common neighbors and tiny p/ln n bound must fail.
  const Graph big = gen::complete_bipartite(2, 40);
  EXPECT_FALSE(check_p5(big, 0.01));
}

TEST(GoodGraph, P6OnlyAppliesAboveThreshold) {
  EXPECT_FALSE(p6_applies(100, 0.01));
  EXPECT_TRUE(p6_applies(100, 0.9));
}

TEST(GoodGraph, P6ChecksDiameter) {
  // Dense graph: diam <= 2 and p above threshold -> pass.
  EXPECT_TRUE(check_p6(gen::complete(50), 0.9));
  // Path with large p claimed: diam > 2 -> fail.
  EXPECT_FALSE(check_p6(gen::path(50), 0.9));
  // Path with small p: vacuous -> pass.
  EXPECT_TRUE(check_p6(gen::path(50), 0.001));
}

TEST(GoodGraph, P1SubsetPredicate) {
  const Graph g = gen::complete(10);
  std::vector<Vertex> all;
  for (Vertex u = 0; u < 10; ++u) all.push_back(u);
  // Average degree 9; bound max(8*0.9*10, 4 ln 10) = 72: holds.
  EXPECT_TRUE(p1_holds_for_subset(g, 0.9, all));
  // With p = 0.01 the bound is 4 ln 10 ≈ 9.21 > 9: still holds (barely).
  EXPECT_TRUE(p1_holds_for_subset(g, 0.01, all));
  // K_40 with p tiny: average degree 39 > 4 ln 40 ≈ 14.8: violated.
  const Graph k40 = gen::complete(40);
  std::vector<Vertex> all40;
  for (Vertex u = 0; u < 40; ++u) all40.push_back(u);
  EXPECT_FALSE(p1_holds_for_subset(k40, 0.001, all40));
}

TEST(GoodGraph, P1EmptySubsetHolds) {
  EXPECT_TRUE(p1_holds_for_subset(gen::complete(5), 0.5, {}));
}

TEST(GoodGraph, P2PreconditionSkipsSmallSets) {
  const Graph g = gen::path(20);
  // |S| < 40 ln(n)/p: predicate vacuously true.
  EXPECT_TRUE(p2_holds_for_subset(g, 0.1, {0, 1, 2}));
}

TEST(GoodGraph, P2DenseGraphSatisfied) {
  // On K_n every outside vertex has |S| >= p|S|/2 neighbors in S.
  const Graph g = gen::complete(300);
  std::vector<Vertex> s;
  for (Vertex u = 0; u < 250; ++u) s.push_back(u);
  EXPECT_TRUE(p2_holds_for_subset(g, 0.95, s));
}

TEST(GoodGraph, P2ViolatedByDisconnectedMass) {
  // Two disjoint cliques of 300; S = one clique. Threshold 40 ln(600)/0.999
  // ≈ 256 <= |S| = 300, so the precondition is met; the other clique's 300
  // vertices have 0 < p|S|/2 neighbors in S and outnumber |S|/2: violated.
  const Graph g = gen::disjoint_cliques(2, 300);
  std::vector<Vertex> s;
  for (Vertex u = 0; u < 300; ++u) s.push_back(u);
  EXPECT_FALSE(p2_holds_for_subset(g, 0.999, s));
}

TEST(GoodGraph, P4SparseCrossEdgesHold) {
  const Graph g = gen::path(100);
  std::vector<Vertex> s, t;
  for (Vertex u = 0; u < 50; ++u) s.push_back(u);
  for (Vertex u = 50; u < 60; ++u) t.push_back(u);
  EXPECT_TRUE(p4_holds_for_pair(g, s, t));
}

TEST(GoodGraph, P4ViolatedByDenseCut) {
  // K_{a,b} with S = left, T = right: |E(S,T)| = a*b > 6 a ln n when
  // b > 6 ln n.
  const Graph g = gen::complete_bipartite(40, 40);
  std::vector<Vertex> s, t;
  for (Vertex u = 0; u < 40; ++u) s.push_back(u);
  for (Vertex u = 40; u < 80; ++u) t.push_back(u);
  EXPECT_FALSE(p4_holds_for_pair(g, s, t));
}

TEST(GoodGraph, P4PreconditionSmallerS) {
  const Graph g = gen::complete(10);
  EXPECT_TRUE(p4_holds_for_pair(g, {0}, {1, 2}));  // |S| < |T|: vacuous
}

TEST(GoodGraph, P3PreconditionDetection) {
  const Graph g = gen::path(10);
  bool pre = false;
  // S and T overlap: precondition unmet.
  p3_holds_for_triplet(g, 0.5, {0, 1}, {1}, {}, &pre);
  EXPECT_FALSE(pre);
  // |S| < 2|T|: unmet.
  p3_holds_for_triplet(g, 0.5, {0}, {5}, {}, &pre);
  EXPECT_FALSE(pre);
  // Valid triplet: S={0,1}, T={5}, I={8}; N(I)={7,9} disjoint from S,T.
  const bool holds = p3_holds_for_triplet(g, 0.5, {0, 1}, {5}, {8}, &pre);
  EXPECT_TRUE(pre);
  EXPECT_TRUE(holds);  // slack 8 ln^2(10)/0.5 is enormous here
}

TEST(GoodGraph, ExhaustiveOnTinyGnp) {
  // Tiny G(n,p): all properties should hold with the generous constants.
  const Graph g = gen::gnp(9, 0.3, 42);
  const auto report = check_good_exhaustive(g, 0.3);
  EXPECT_TRUE(report.p1) << report.to_string();
  EXPECT_TRUE(report.p2) << report.to_string();
  EXPECT_TRUE(report.p3) << report.to_string();
  EXPECT_TRUE(report.p4) << report.to_string();
  EXPECT_TRUE(report.p5) << report.to_string();
}

TEST(GoodGraph, SampledCheckPassesOnGnp) {
  // Lemma 18 (spot check): a moderate G(n,p) sample passes the randomized
  // refutation search for all properties.
  const Graph g = gen::gnp(300, 0.1, 7);
  const auto report = check_good_sampled(g, 0.1, 30, 99);
  EXPECT_TRUE(report.all()) << report.to_string();
}

TEST(GoodGraph, SampledCheckRefutesP1OnPlantedClique) {
  // A clique of size 60 inside an otherwise empty graph of 300 vertices:
  // the degree-ordered prefix candidate finds the dense subgraph and P1
  // fails for small p.
  GraphBuilder b(300);
  for (Vertex i = 0; i < 60; ++i)
    for (Vertex j = i + 1; j < 60; ++j) b.add_edge(i, j);
  const Graph g = b.build();
  const auto report = check_good_sampled(g, 0.001, 40, 5);
  EXPECT_FALSE(report.p1);
}

TEST(GoodGraph, ReportToStringMentionsAll) {
  GoodGraphReport r;
  const std::string s = r.to_string();
  for (const char* key : {"P1", "P2", "P3", "P4", "P5", "P6"})
    EXPECT_NE(s.find(key), std::string::npos);
}

}  // namespace
}  // namespace ssmis
