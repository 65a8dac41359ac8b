// Bit-identity goldens for the Lemma 20-22 machinery: the periodic-run
// scan, the window-maximum seeds and the canonical rotations feed the O(1)
// synthesized algorithm, and the window maxima also feed the
// ell-orientation. The values were recorded before these primitives were
// merged into local/partition, so any drift shows up as a changed hash
// here.
//
// Each synthesized case simulates the problem at its structured-regime n
// (4r + 4 on cycles, 2r + 4 on paths, r the structured radius) on a fixed
// seed and hashes the outputs. A case whose pipeline throws a logic_error
// records the message instead: that is the recorded behavior, defects
// included. kGapNotEnclosed is the seed-domination defect (README,
// Synthesis); copy_input on the directed cycle with seed 1270 is its
// documented instance. The orientation cases hash the window directions
// of random and monotone/zigzag ID sequences.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "decide/classifier.hpp"
#include "lcl/catalog.hpp"
#include "local/orientation.hpp"

namespace lclpath {
namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

// Overwrites the inputs with periodic blocks (period 1-6, possibly not
// primitive, 5-154 nodes) separated by short random stretches, so runs of
// different periods nest and abut — random inputs almost never do.
void make_blocky(Instance& instance, Rng& rng) {
  const std::size_t n = instance.size();
  std::size_t v = 0;
  while (v < n) {
    Word pattern(1 + rng.next_below(6));
    for (Label& l : pattern) l = static_cast<Label>(rng.next_below(2));
    const std::size_t len = 5 + rng.next_below(150);
    for (std::size_t k = 0; k < len && v < n; ++k, ++v) {
      instance.inputs[v] = pattern[k % pattern.size()];
    }
    const std::size_t noise = rng.next_below(8);
    for (std::size_t k = 0; k < noise && v < n; ++k, ++v) {
      instance.inputs[v] = static_cast<Label>(rng.next_below(2));
    }
  }
}

std::string simulate_golden(const PairwiseProblem& problem, std::uint64_t seed,
                            bool blocky = false) {
  try {
    const ClassifiedProblem result = classify(problem);
    const auto algorithm = result.synthesize();
    const std::size_t r = algorithm->radius(std::size_t{1} << 30);
    const std::size_t n = is_cycle(problem.topology()) ? 4 * r + 4 : 2 * r + 4;
    Rng rng(seed);
    Instance instance = random_instance(problem.topology(), n, problem.num_inputs(), rng);
    if (blocky) make_blocky(instance, rng);
    const SimulationResult sim = simulate(*algorithm, problem, instance);
    Fnv1a hash;
    hash.add(n);
    hash.add(sim.verdict.ok ? 1 : 0);
    for (Label l : sim.outputs) hash.add(l);
    return hash.hex();
  } catch (const std::logic_error& e) {
    return e.what();
  }
}

struct SimulateCase {
  PairwiseProblem (*make)(Topology);
  Topology topology;
  std::uint64_t seed;
  const char* golden;
};

PairwiseProblem three_coloring(Topology t) { return catalog::coloring(3, t); }

// O(1) with a free choice: binary inputs, outputs {x, y}, no two adjacent
// x (all-y is valid everywhere). The catalog's O(1) problems have exactly
// one valid output per instance, so their hashes only move when a case
// starts or stops throwing; here the chosen labeling depends on where the
// claimed runs, seeds and anchors fall, so any drift in them shows.
PairwiseProblem no_adjacent_x(Topology topology) {
  PairwiseProblem p("no-adjacent-x", Alphabet({"0", "1"}), Alphabet({"x", "y"}), topology);
  for (const char* in : {"0", "1"}) {
    p.allow_node(in, "x");
    p.allow_node(in, "y");
  }
  p.allow_edge("x", "y");
  p.allow_edge("y", "x");
  p.allow_edge("y", "y");
  return p;
}

constexpr Topology kDC = Topology::kDirectedCycle;
constexpr Topology kDP = Topology::kDirectedPath;
constexpr Topology kUC = Topology::kUndirectedCycle;
constexpr Topology kUP = Topology::kUndirectedPath;

void ExpectSimulateGoldens(Topology topology, const std::vector<SimulateCase>& cases) {
  for (const SimulateCase& c : cases) {
    if (c.topology != topology) continue;
    const PairwiseProblem problem = c.make(c.topology);
    EXPECT_EQ(simulate_golden(problem, c.seed), c.golden)
        << problem.name() << " on " << to_string(c.topology) << " seed " << c.seed;
  }
}

// shift_input is not orientation-symmetric, so classify() rejects it on
// undirected topologies.
constexpr const char* kNotSymmetric =
    "classify: undirected topologies require an orientation-symmetric edge constraint "
    "(see Section 3.7 for the lift from directed problems)";
constexpr const char* kGapNotEnclosed =
    "constant: virtual gap not enclosed by anchors in window";

const std::vector<SimulateCase>& simulate_cases() {
  static const std::vector<SimulateCase> cases = {
      {catalog::constant_output, kDC, 1, "4d449e5b24f36f5a"},
      {catalog::constant_output, kDC, 2, "4d449e5b24f36f5a"},
      {catalog::constant_output, kDC, 1270, "4d449e5b24f36f5a"},
      {catalog::copy_input, kDC, 1, "de501f8b2abe6251"},
      {catalog::copy_input, kDC, 2, "250526111039ce30"},
      {catalog::copy_input, kDC, 1270, kGapNotEnclosed},
      {catalog::shift_input, kDC, 1, "84280566afeecd81"},
      {catalog::shift_input, kDC, 2, "b8bd86660433dba2"},
      {catalog::shift_input, kDC, 1270, "f6d0dc710ed21f42"},
      {no_adjacent_x, kDC, 1, "969128c75a5d5eac"},
      {no_adjacent_x, kDC, 2, kGapNotEnclosed},
      {no_adjacent_x, kDC, 1270, kGapNotEnclosed},
      {three_coloring, kDC, 1, "ae4d73df6b755dab"},
      {three_coloring, kDC, 2, "952057013e649fcb"},
      {three_coloring, kDC, 1270, "d7c6b04dbd57934a"},
      {catalog::constant_output, kDP, 1, "4872fe593e89907b"},
      {catalog::constant_output, kDP, 2, "4872fe593e89907b"},
      {catalog::constant_output, kDP, 1270, "4872fe593e89907b"},
      {catalog::copy_input, kDP, 1, "4b9e6001e914bfa1"},
      {catalog::copy_input, kDP, 2, "b32ef9ec5fbfc661"},
      {catalog::copy_input, kDP, 1270, "db4844f6cd4ee120"},
      {catalog::shift_input, kDP, 1, "e8058ab7c69da8a9"},
      {catalog::shift_input, kDP, 2, "677dd19938a689cb"},
      {catalog::shift_input, kDP, 1270, "8e0b022d1845a5eb"},
      {no_adjacent_x, kDP, 1, "bb718850ff23ee5a"},
      {no_adjacent_x, kDP, 2, "5a31dd89cd88d87a"},
      {no_adjacent_x, kDP, 1270, "1270324485dd4c7b"},
      {three_coloring, kDP, 1, "614eb58b939cd1c5"},
      {three_coloring, kDP, 2, "1156cc45d2b72905"},
      {three_coloring, kDP, 1270, "65be685d53dd6f25"},
      {catalog::constant_output, kUC, 1, "34cf64201ce2f382"},
      {catalog::constant_output, kUC, 2, "34cf64201ce2f382"},
      {catalog::constant_output, kUC, 1270, "34cf64201ce2f382"},
      {catalog::copy_input, kUC, 1, "a7faaa551a4f41ba"},
      {catalog::copy_input, kUC, 2, "0ced14a072afff1b"},
      {catalog::copy_input, kUC, 1270, "3938125673ee3aba"},
      {catalog::shift_input, kUC, 1, kNotSymmetric},
      {catalog::shift_input, kUC, 2, kNotSymmetric},
      {catalog::shift_input, kUC, 1270, kNotSymmetric},
      {no_adjacent_x, kUC, 1, "df771096fc5de50b"},
      {no_adjacent_x, kUC, 2, "a72598aedc13baea"},
      {no_adjacent_x, kUC, 1270, "b7de58670cd7150a"},
      {three_coloring, kUC, 1, "417d05d988463fc2"},
      {three_coloring, kUC, 2, "14d4136b04069302"},
      {three_coloring, kUC, 1270, "3656b5767d982fc2"},
      {catalog::constant_output, kUP, 1, "4842e364857596d7"},
      {catalog::constant_output, kUP, 2, "4842e364857596d7"},
      {catalog::constant_output, kUP, 1270, "4842e364857596d7"},
      {catalog::copy_input, kUP, 1, "92d1f63be420c067"},
      {catalog::copy_input, kUP, 2, "66c8b287393ecda7"},
      {catalog::copy_input, kUP, 1270, "01a11c733b8c9fc6"},
      {catalog::shift_input, kUP, 1, kNotSymmetric},
      {catalog::shift_input, kUP, 2, kNotSymmetric},
      {catalog::shift_input, kUP, 1270, kNotSymmetric},
      {no_adjacent_x, kUP, 1, "52d4387113693a2d"},
      {no_adjacent_x, kUP, 2, "d6618841d869122c"},
      {no_adjacent_x, kUP, 1270, "b553acdc63908a2c"},
      {three_coloring, kUP, 1, "783045b84cd25c48"},
      {three_coloring, kUP, 2, "cd93f0e243bb0ce8"},
      {three_coloring, kUP, 1270, "057210e369811c09"},
  };
  return cases;
}

TEST(SynthesisGolden, DirectedCycle) { ExpectSimulateGoldens(kDC, simulate_cases()); }
TEST(SynthesisGolden, DirectedPath) { ExpectSimulateGoldens(kDP, simulate_cases()); }
TEST(SynthesisGolden, UndirectedCycle) { ExpectSimulateGoldens(kUC, simulate_cases()); }
TEST(SynthesisGolden, UndirectedPath) { ExpectSimulateGoldens(kUP, simulate_cases()); }

// Periodic-block inputs (make_blocky): claims of several periods, seeds
// between them and anchors inside them all shape the outputs.
TEST(SynthesisGolden, BlockyInputs) {
  const std::vector<SimulateCase> cases = {
      {no_adjacent_x, kDC, 1, "930789ac38d2906d"},
      {no_adjacent_x, kDC, 2, "0394ec7871cd1fcc"},
      {no_adjacent_x, kDP, 1, "3ef0241d1bc822ba"},
      {no_adjacent_x, kDP, 2, "1813d9a299e47b7b"},
      {no_adjacent_x, kUC, 1, "2fd393b7bb5780eb"},
      {no_adjacent_x, kUC, 2, "464b2d4b077a4acb"},
      {no_adjacent_x, kUP, 1, "818e70bbdd234b8c"},
      {no_adjacent_x, kUP, 2, "7a52777eeb273a4d"},
      {catalog::copy_input, kDC, 1, "a84079f0c892c4f0"},
      {catalog::copy_input, kUP, 1, "5d4faf66c49daa67"},
  };
  for (const SimulateCase& c : cases) {
    const PairwiseProblem problem = c.make(c.topology);
    EXPECT_EQ(simulate_golden(problem, c.seed, /*blocky=*/true), c.golden)
        << problem.name() << " on " << to_string(c.topology) << " seed " << c.seed;
  }
}

// The O(1) and log* rows of the end-to-end simulation benchmark (plus
// no_adjacent_x, whose labeling depends on where anchors fall), run at
// 5 * 10^4 nodes in 4096-node chunks on 4 workers: every worker lays out
// many windows in turn, so a memo or scratch buffer that goes stale from
// one span to the next changes a hash here. The single-window goldens
// above cannot see that. Recorded before the layouts reused scratch.
TEST(SynthesisGolden, MultiChunkSweep) {
  struct Case {
    PairwiseProblem (*make)(Topology);
    Topology topology;
    const char* golden;
  };
  const std::vector<Case> cases = {
      {catalog::constant_output, kDC, "a7e5ce80c4ce6e2f"},
      {three_coloring, kDC, "bdb54da2f6a26c6e"},
      {catalog::constant_output, kDP, "a7e5ce80c4ce6e2f"},
      {three_coloring, kDP, "f16d66bf784276ed"},
      {catalog::constant_output, kUC, "a7e5ce80c4ce6e2f"},
      {three_coloring, kUC, "50f7e306b69e530f"},
      {catalog::constant_output, kUP, "a7e5ce80c4ce6e2f"},
      {three_coloring, kUP, "98a34f1cf5692b0c"},
      {no_adjacent_x, kDC, "181d3fda3c238b4e"},
      {no_adjacent_x, kDP, "9d9e4e58b9ce892e"},
      {no_adjacent_x, kUC, "b189c81073854d6e"},
      {no_adjacent_x, kUP, "b189c81073854d6e"},
  };
  constexpr std::size_t kNodes = 50000;
  for (const Case& c : cases) {
    const PairwiseProblem problem = c.make(c.topology);
    const ClassifiedProblem classified = classify(problem);
    const auto algorithm = classified.synthesize();
    Rng rng(23);
    const Instance instance = random_instance(c.topology, kNodes, problem.num_inputs(), rng);
    SimulationOptions options;
    options.threads = 4;
    options.chunk_size = 4096;
    const SimulationResult sim = simulate(*algorithm, problem, instance, options);
    EXPECT_EQ(sim.chunks, (kNodes + 4095) / 4096);
    Fnv1a hash;
    hash.add(kNodes);
    hash.add(sim.verdict.ok ? 1 : 0);
    for (Label l : sim.outputs) hash.add(l);
    EXPECT_EQ(hash.hex(), c.golden) << problem.name() << " on " << to_string(c.topology);
  }
}

// The window ell-orientation on random IDs and on alternating monotone /
// zigzag stretches.
TEST(OrientationGolden, WindowDirections) {
  const std::vector<const char*> goldens = {"ed17bc2324139283", "2003dd1dafc73de2",
                                           "9e225ff52e0a8a23", "18c4675cdd7b5762"};
  Rng rng(5);
  std::size_t row = 0;
  for (std::size_t ell : {5u, 40u}) {
    for (int shape = 0; shape < 2; ++shape) {
      const std::size_t n = 3000;
      std::vector<NodeId> ids;
      for (std::size_t id : rng.permutation(n)) ids.push_back(id);
      if (shape == 1) {
        for (std::size_t v = 0; v < n; ++v) {
          ids[v] = v % 700 < 350 || v % 2 == 0 ? v : n + v;
        }
      }
      Fnv1a hash;
      std::vector<Direction> directions;
      OrientationScratch scratch;
      orientation_directions_window(ids, ell, directions, scratch);
      for (Direction d : directions) {
        hash.add(d == Direction::kForward ? 1 : 0);
      }
      EXPECT_EQ(hash.hex(), goldens[row]) << "ell=" << ell << " shape " << shape;
      ++row;
    }
  }
}

}  // namespace
}  // namespace lclpath
