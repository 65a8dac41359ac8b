// Seeded input generators. Every workload's inputs are a function of the
// --seed argument alone, and the library under test receives only these
// generated problem texts (and, for synth_simulate, instances).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "lcl/catalog.hpp"

namespace pipebench {

/// A problem as the program receives it (serialized text) plus, where a
/// textbook answer exists, the class it must get.
struct GeneratedProblem {
  std::string text;
  std::optional<lclpath::ComplexityClass> expected;
};

/// One family of random pairwise problems: alphabet sizes, the chance
/// (in eighths) that each node / edge pair is allowed, and the topology.
struct Stratum {
  std::size_t inputs = 1;
  std::size_t outputs = 2;
  std::uint64_t node_eighths = 6;
  std::uint64_t edge_eighths = 6;
  lclpath::Topology topology = lclpath::Topology::kDirectedPath;
};

/// An independent generator stream for (seed, purpose), so the workloads'
/// inputs do not shift when another workload's generator changes.
lclpath::Rng seeded_rng(std::uint64_t seed, std::uint64_t purpose);

lclpath::PairwiseProblem random_problem(lclpath::Rng& rng, const Stratum& stratum,
                                        std::string name);

/// decide_mix: the validation catalog followed by `random_count` random
/// problems drawn round-robin from the mix strata. Problems whose monoid
/// exceeds kMixMaxMonoid elements are redrawn (see README.md, "How the mix
/// repeats").
inline constexpr std::size_t kMixMaxMonoid = 300;
std::vector<GeneratedProblem> decide_mix_inputs(std::uint64_t seed, std::size_t random_count);

/// synth_simulate: one catalog problem per solvable class on each
/// topology that has one.
std::vector<GeneratedProblem> synth_inputs();

/// store_serve: a corpus to classify into the store and a pool of novel
/// problems whose canonical keys are neither in the corpus nor repeated.
struct StoreInputs {
  std::vector<std::string> corpus;
  std::vector<std::string> novel;
};
StoreInputs store_inputs(std::uint64_t seed, std::size_t corpus_count,
                         std::size_t novel_count);

/// A seeded permutation of 0..n-1.
std::vector<std::size_t> seeded_order(std::uint64_t seed, std::uint64_t purpose,
                                      std::size_t n);

}  // namespace pipebench
