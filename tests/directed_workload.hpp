// The seeded directed-problem workload shared by the allocation budgets
// and the certificate digest.
#pragma once

#include <string>
#include <vector>

#include "automata/monoid.hpp"
#include "core/rng.hpp"
#include "lcl/catalog.hpp"

namespace lclpath::testing {

/// Seeded directed problems: 1-3 inputs, 2-5 outputs, node and edge pairs
/// each allowed with probability 6/8, monoids of at most 300 elements
/// (larger draws are skipped), then the directed validation catalog.
inline std::vector<PairwiseProblem> seeded_directed_workload() {
  std::vector<PairwiseProblem> problems;
  Rng rng(20240521);
  while (problems.size() < 400) {
    const std::size_t alpha = 1 + rng.next_below(3);
    const std::size_t beta = 2 + rng.next_below(4);
    Alphabet inputs;
    Alphabet outputs;
    for (std::size_t i = 0; i < alpha; ++i) {
      inputs.add(std::string("i").append(std::to_string(i)));
    }
    for (std::size_t o = 0; o < beta; ++o) {
      outputs.add(std::string("o").append(std::to_string(o)));
    }
    const Topology topology =
        problems.size() % 2 == 0 ? Topology::kDirectedPath : Topology::kDirectedCycle;
    PairwiseProblem problem("random", inputs, outputs, topology);
    for (Label i = 0; i < alpha; ++i) {
      for (Label o = 0; o < beta; ++o) {
        if (rng.next_bool(6, 8)) problem.allow_node(i, o);
      }
    }
    for (Label a = 0; a < beta; ++a) {
      for (Label b = 0; b < beta; ++b) {
        if (rng.next_bool(6, 8)) problem.allow_edge(a, b);
      }
    }
    try {
      Monoid::enumerate(TransitionSystem::build(problem), 300);
    } catch (const MonoidBudgetError&) {
      continue;
    }
    problems.push_back(std::move(problem));
  }
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    if (is_directed(entry.problem.topology())) problems.push_back(entry.problem);
  }
  return problems;
}

}  // namespace lclpath::testing
