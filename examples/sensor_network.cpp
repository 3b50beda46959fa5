// Wireless sensor network clustering — the deployment scenario the paper's
// beeping model abstracts (Section 1, [Cornejo-Kuhn 2010]).
//
// Sensors are scattered uniformly in the unit square; two sensors hear each
// other within their radio range (a random geometric graph). Cluster heads
// must form a maximal independent set: no two heads in radio range (channel
// reuse), every sensor adjacent to a head (coverage).
//
// The 2-state MIS process runs *as a beeping algorithm*: each sensor is a
// 2-state automaton that beeps when it considers itself a head and carrier-
// senses otherwise — 1 bit per round, no IDs, no topology knowledge, no
// synchronized startup (states start arbitrary), sender collision detection
// only. We simulate the actual radio layer (BeepingNetwork), not the
// abstract process.
//
//   ./sensor_network [--sensors=400] [--range=0.08] [--seed=3]
#include <iostream>

#include "core/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "support/cli.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const Vertex sensors = static_cast<Vertex>(args.get_int("sensors", 400));
  const double range = args.get_double("range", 0.08);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  const Graph g = gen::random_geometric(sensors, range, seed);
  std::cout << "radio graph: " << g.summary() << ", components: "
            << num_components(g) << "\n";

  // Every sensor boots in an arbitrary state — here: everyone thinks it is
  // a cluster head (worst case for contention).
  const TwoStateBeepAutomaton automaton;
  std::vector<std::uint8_t> boot(static_cast<std::size_t>(sensors),
                                 TwoStateBeepAutomaton::kBlack);
  const CoinOracle coins(seed + 1);
  BeepingNetwork radio(g, automaton, boot, coins);

  // Run the radio protocol until the claimed head set is an MIS, which the
  // simulator reads off its violation count. A real deployment cannot test
  // this globally — termination detection is not part of the model — but
  // no state changes once stable: heads beep into silence, members hear
  // their head.
  std::int64_t round = 0;
  const std::int64_t horizon = 100000;
  while (round < horizon && !radio.stabilized()) {
    radio.step();
    ++round;
  }

  const auto heads = radio.black_set();
  std::cout << "rounds until stable head set: " << round << "\n";
  std::cout << "cluster heads: " << heads.size() << " / " << sensors << " sensors\n";
  std::cout << "valid MIS (no adjacent heads, full coverage): "
            << (is_mis(g, heads) ? "yes" : "NO") << "\n";
  std::cout << "total beeps transmitted: " << radio.total_beeps() << " ("
            << static_cast<double>(radio.total_beeps()) / (round == 0 ? 1 : round)
            << " per round network-wide; 1 bit each)\n";

  // Coverage report: how many sensors are within range of a head.
  std::vector<char> covered(static_cast<std::size_t>(sensors), 0);
  for (Vertex h : heads) {
    covered[static_cast<std::size_t>(h)] = 1;
    g.for_each_neighbor(h, [&](Vertex v) { covered[static_cast<std::size_t>(v)] = 1; });
  }
  Vertex covered_count = 0;
  for (char c : covered) covered_count += c;
  std::cout << "sensors covered by a head: " << covered_count << " / " << sensors
            << "\n";
  return is_mis(g, heads) ? 0 : 1;
}
