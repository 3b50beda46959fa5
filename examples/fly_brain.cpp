// Sensory-organ-precursor (SOP) selection — the biological MIS instance the
// paper cites (Afek et al., Science 2011): during fly nervous-system
// development, bristle cells self-select so that no two adjacent epithelial
// cells both become SOPs and every cell touches one.
//
// Cells sit on a hex-like lattice (here: a torus grid with diagonals) and
// interact only by Delta-Notch lateral inhibition — a cell expressing Delta
// suppresses its neighbors. That is a 1-bit "beep": the 3-state MIS process
// needs exactly such signalling and no collision detection, so we run it in
// the stone-age model with 2 channels.
//
//   ./fly_brain [--rows=24] [--cols=24] [--seed=11]
#include <iostream>

#include "core/verify.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"
#include "support/cli.hpp"

using namespace ssmis;

namespace {

// Torus grid with one diagonal per cell: each cell inhibits 6 neighbors,
// approximating the hexagonal epithelium packing.
Graph epithelium(Vertex rows, Vertex cols) {
  GraphBuilder b(rows * cols);
  auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
      b.add_edge(id(r, c), id((r + 1) % rows, (c + 1) % cols));
    }
  }
  return std::move(b).build();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const Vertex rows = static_cast<Vertex>(args.get_int("rows", 24));
  const Vertex cols = static_cast<Vertex>(args.get_int("cols", 24));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  const Graph tissue = epithelium(rows, cols);
  std::cout << "epithelium: " << tissue.summary() << " (6 neighbors per cell)\n";

  // All cells start undifferentiated ("white"); development selects SOPs.
  const ThreeStateStoneAgeAutomaton automaton;
  std::vector<std::uint8_t> init(static_cast<std::size_t>(tissue.num_vertices()),
                                 ThreeStateStoneAgeAutomaton::kWhite);
  const CoinOracle coins(seed);
  StoneAgeNetwork net(tissue, automaton, init, coins);

  std::int64_t round = 0;
  while (round < 100000 && !net.stabilized()) {
    net.step();
    ++round;
  }
  const auto sops = net.black_set();
  std::cout << "developmental rounds: " << round << "\n";
  std::cout << "SOPs selected: " << sops.size() << " of " << tissue.num_vertices()
            << " cells (" << 100.0 * static_cast<double>(sops.size()) /
                                 tissue.num_vertices()
            << "%)\n";
  std::cout << "lateral inhibition satisfied (valid MIS): "
            << (is_mis(tissue, sops) ? "yes" : "NO") << "\n";

  // Render a patch of tissue: '#' = SOP, '.' = epithelial cell.
  std::vector<char> is_sop(static_cast<std::size_t>(tissue.num_vertices()), 0);
  for (Vertex s : sops) is_sop[static_cast<std::size_t>(s)] = 1;
  const Vertex show_rows = std::min<Vertex>(rows, 16);
  const Vertex show_cols = std::min<Vertex>(cols, 32);
  std::cout << "\ntissue patch (" << show_rows << "x" << show_cols << "):\n";
  for (Vertex r = 0; r < show_rows; ++r) {
    for (Vertex c = 0; c < show_cols; ++c)
      std::cout << (is_sop[static_cast<std::size_t>(r * cols + c)] ? '#' : '.');
    std::cout << '\n';
  }
  return is_mis(tissue, sops) ? 0 : 1;
}
