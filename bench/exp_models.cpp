// Experiment E13: communication-model fidelity.
//
//  * The 2-state process run as a beeping automaton (1 bit/round, sender
//    collision detection) is bit-identical to the direct simulation.
//  * The 3-state process as a 2-channel stone-age automaton (no collision
//    detection) is bit-identical.
//  * The 18-state 3-color process as an 18-channel stone-age automaton is
//    bit-identical including the randomized switch levels.
//  * Communication accounting: bits per node per round for each algorithm
//    vs. Luby-style O(log n)-bit messages.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/init.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "harness/suites.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E13: weak-communication model fidelity",
      "the processes ARE beeping/stone-age algorithms: model executions are "
      "bit-identical to the direct process simulations",
      200,
      bench::GraphFilePolicy::kLoad, "2state", bench::ProtocolPolicy::kFixed);

  const auto suite = ctx.suite_or([&] { return small_suite(ctx.seed); });
  const int rounds = ctx.trials;  // rounds compared per graph

  print_banner(std::cout, "trace equivalence (rounds compared, mismatches)");
  TextTable table({"graph", "2state/beeping", "3state/stoneage", "3color/stoneage18"});
  // Each suite cell's three lockstep comparisons are self-contained, so the
  // cells batch across the pool; rows are rendered in suite order.
  struct RowCells {
    std::string beeping, stoneage, stoneage18;
  };
  const auto row_cells = ctx.trial_batch(static_cast<int>(suite.size()))
                             .map<RowCells>([&](int cell_idx) {
    const auto& cell = suite[static_cast<std::size_t>(cell_idx)];
    RowCells row;
    const Graph& g = cell.graph;
    const CoinOracle coins(ctx.seed + 11);

    {
      const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
      TwoStateMIS direct(g, init, coins);
      const TwoStateBeepAutomaton automaton;
      std::vector<std::uint8_t> s(init.size());
      for (std::size_t i = 0; i < init.size(); ++i)
        s[i] = TwoStateBeepAutomaton::encode(init[i]);
      BeepingNetwork net(g, automaton, s, coins);
      int mismatches = 0;
      for (int r = 0; r < rounds; ++r) {
        direct.step();
        net.step();
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          if (TwoStateBeepAutomaton::decode(net.color(u)) != direct.color(u)) ++mismatches;
      }
      row.beeping = std::to_string(rounds) + " rounds, " +
                    std::to_string(mismatches) + " mism";
    }
    {
      const auto init = make_init3(g, InitPattern::kUniformRandom, coins);
      ThreeStateMIS direct(g, init, coins);
      const ThreeStateStoneAgeAutomaton automaton;
      std::vector<std::uint8_t> s(init.size());
      for (std::size_t i = 0; i < init.size(); ++i)
        s[i] = ThreeStateStoneAgeAutomaton::encode(init[i]);
      StoneAgeNetwork net(g, automaton, s, coins);
      int mismatches = 0;
      for (int r = 0; r < rounds; ++r) {
        direct.step();
        net.step();
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          if (ThreeStateStoneAgeAutomaton::decode(net.color(u)) != direct.color(u))
            ++mismatches;
      }
      row.stoneage = std::to_string(rounds) + " rounds, " +
                     std::to_string(mismatches) + " mism";
    }
    {
      const auto init = make_init_g(g, InitPattern::kUniformRandom, coins);
      auto direct = ThreeColorMIS::with_randomized_switch(g, init, coins);
      const auto* sw = dynamic_cast<const RandomizedLogSwitch*>(&direct.switch_process());
      const ThreeColorStoneAgeAutomaton automaton;
      std::vector<std::uint8_t> s(init.size());
      for (Vertex u = 0; u < g.num_vertices(); ++u)
        s[static_cast<std::size_t>(u)] = ThreeColorStoneAgeAutomaton::encode(
            init[static_cast<std::size_t>(u)], sw->clock().level(u));
      StoneAgeNetwork net(g, automaton, s, coins);
      int mismatches = 0;
      for (int r = 0; r < rounds; ++r) {
        direct.step();
        net.step();
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (ThreeColorStoneAgeAutomaton::decode_color(net.color(u)) != direct.color(u) ||
              ThreeColorStoneAgeAutomaton::decode_level(net.color(u)) !=
                  sw->clock().level(u))
            ++mismatches;
        }
      }
      row.stoneage18 = std::to_string(rounds) + " rounds, " +
                       std::to_string(mismatches) + " mism";
    }
    return row;
  });
  for (std::size_t i = 0; i < suite.size(); ++i) {
    table.begin_row();
    table.add_cell(suite[i].name);
    table.add_cell(row_cells[i].beeping);
    table.add_cell(row_cells[i].stoneage);
    table.add_cell(row_cells[i].stoneage18);
  }
  table.print(std::cout);

  print_banner(std::cout, "communication accounting (per node per round)");
  {
    TextTable table2({"algorithm", "states/node", "channels", "bits sent/round",
                      "random bits/round", "collision detection"});
    table2.add_row({"2-state (beeping)", "2", "1", "1", "1", "sender CD required"});
    table2.add_row({"3-state (stone age)", "3", "2", "1 of 2 channels", "1", "none"});
    table2.add_row({"3-color (stone age)", "18", "18", "1 of 18 channels", "8", "none"});
    table2.add_row({"Luby (message passing)", "O(log n)", "-", "O(log n)/edge",
                    "O(log n)", "none"});
    table2.print(std::cout);
  }

  bench::finish_experiment("zero mismatches everywhere: the model translations are exact");
  return 0;
}
