#include <gtest/gtest.h>

#include "core/daemon.hpp"
#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(Daemon, ConstructorValidation) {
  const Graph g = gen::path(3);
  EXPECT_THROW(DaemonMIS(g, {Color2::kWhite}, std::make_unique<SynchronousDaemon>(),
                         CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(DaemonMIS(g, std::vector<Color2>(3, Color2::kWhite), nullptr,
                         CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(RandomSubsetDaemon(0.0, 1), std::invalid_argument);
  EXPECT_THROW(RandomSubsetDaemon(1.5, 1), std::invalid_argument);
}

TEST(Daemon, SynchronousDaemonBitIdenticalToTwoStateMIS) {
  // The unification check: under the all-enabled daemon with the same coin
  // oracle, DaemonMIS IS the synchronous 2-state process.
  const std::vector<Graph> graphs = {gen::complete(16), gen::gnp(50, 0.1, 3),
                                     gen::random_tree(40, 4), gen::path(30)};
  for (const Graph& g : graphs) {
    const CoinOracle coins(7);
    const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
    TwoStateMIS direct(g, init, coins);
    DaemonMIS daemon(g, init, std::make_unique<SynchronousDaemon>(), coins);
    for (int i = 0; i < 150; ++i) {
      direct.step();
      daemon.step();
      ASSERT_EQ(daemon.colors(), direct.colors()) << g.summary() << " step " << i;
    }
  }
}

TEST(Daemon, StabilizesUnderAllDaemons) {
  const Graph g = gen::gnp(60, 0.1, 11);
  const CoinOracle coins(13);
  auto make_daemons = [&]() {
    std::vector<std::unique_ptr<ActivationDaemon>> daemons;
    daemons.push_back(std::make_unique<SynchronousDaemon>());
    daemons.push_back(std::make_unique<CentralDaemon>(17));
    daemons.push_back(std::make_unique<RandomSubsetDaemon>(0.1, 19));
    daemons.push_back(std::make_unique<RandomSubsetDaemon>(0.5, 23));
    return daemons;
  };
  for (auto& daemon : make_daemons()) {
    const std::string name = daemon->name();
    DaemonMIS p(g, make_init2(g, InitPattern::kAllBlack, coins), std::move(daemon),
                coins);
    const auto steps = run_until_stabilized(p, 5000000).rounds;
    ASSERT_TRUE(p.stabilized()) << name << " after " << steps << " steps";
    EXPECT_TRUE(is_mis(g, p.black_set())) << name;
  }
}

TEST(Daemon, CentralDaemonActivatesOnePerStep) {
  const Graph g = gen::complete(8);
  const CoinOracle coins(29);
  DaemonMIS p(g, std::vector<Color2>(8, Color2::kBlack),
              std::make_unique<CentralDaemon>(31), coins);
  while (!p.stabilized()) {
    p.step();
    ASSERT_LE(p.last_activations(), 1);
  }
  EXPECT_TRUE(is_mis(g, p.black_set()));
}

TEST(Daemon, EmptySubsetFallsBackToAll) {
  // rho so small the subset is usually empty: the liveness fallback must
  // keep the process moving rather than spinning forever.
  const Graph g = gen::gnp(30, 0.15, 37);
  const CoinOracle coins(41);
  DaemonMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins),
              std::make_unique<RandomSubsetDaemon>(0.01, 43), coins);
  const auto steps = run_until_stabilized(p, 200000).rounds;
  EXPECT_TRUE(p.stabilized()) << steps;
}

TEST(Daemon, StabilizedStepIsNoOp) {
  const Graph g = gen::path(3);
  DaemonMIS p(g, {Color2::kBlack, Color2::kWhite, Color2::kBlack},
              std::make_unique<SynchronousDaemon>(), CoinOracle(1));
  EXPECT_TRUE(p.stabilized());
  p.step();
  EXPECT_EQ(p.last_activations(), 0);
  EXPECT_EQ(p.round(), 1);  // a step is counted even when nothing is enabled
  EXPECT_EQ(p.colors()[0], Color2::kBlack);
}

TEST(Daemon, EnabledMatchesDefinitionFourActivity) {
  const Graph g = gen::path(4);
  const std::vector<Color2> init = {Color2::kBlack, Color2::kBlack, Color2::kWhite,
                                    Color2::kWhite};
  DaemonMIS p(g, init, std::make_unique<SynchronousDaemon>(), CoinOracle(1));
  const TwoStateMIS reference(g, init, CoinOracle(1));
  for (Vertex u = 0; u < 4; ++u)
    EXPECT_EQ(p.engine().scheduled(u), reference.engine().active(u));
  EXPECT_EQ(p.engine().num_scheduled(), reference.num_active());
}

TEST(Daemon, NamesAreInformative) {
  EXPECT_EQ(SynchronousDaemon().name(), "synchronous");
  EXPECT_EQ(CentralDaemon(1).name(), "central");
  EXPECT_NE(RandomSubsetDaemon(0.25, 1).name().find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace ssmis
