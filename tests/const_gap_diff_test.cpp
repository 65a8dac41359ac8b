// Differential tests for decide_const_gap against the per-element
// reference in const_gap_oracle.hpp: the decider checks every "for each
// gap/middle element" condition against the distinct, inclusion-minimal
// vectors the elements generate, the reference evaluates it once per
// element. Both feed the same signature search, so they must agree on
// feasibility and on every chosen periodic boundary — on the validation
// catalog, on seeded random problems of all four topologies, and on the
// Section 3.7 undirected lifts.
#include <gtest/gtest.h>

#include <string>

#include "const_gap_oracle.hpp"
#include "hardness/undirected.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

using testing::decide_const_gap_reference;

/// Compares the decider with the reference on one problem; returns the
/// decider's verdict.
bool expect_matches_reference(const PairwiseProblem& problem) {
  SCOPED_TRACE(problem.name() + " on " + to_string(problem.topology()));
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(problem));
  const ConstGapCertificate cert = decide_const_gap(monoid);
  const ConstGapCertificate reference = decide_const_gap_reference(monoid);
  EXPECT_EQ(cert.feasible, reference.feasible);
  EXPECT_EQ(cert.ell_ctx, reference.ell_ctx);
  EXPECT_EQ(cert.choice_per_element.size(), reference.choice_per_element.size());
  if (cert.choice_per_element.size() == reference.choice_per_element.size()) {
    for (std::size_t e = 0; e < cert.choice_per_element.size(); ++e) {
      EXPECT_EQ(cert.choice_per_element[e], reference.choice_per_element[e])
          << "element " << e;
    }
  }
  return cert.feasible;
}

TEST(ConstGapDiff, MatchesReferenceOnEveryCatalogProblem) {
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    expect_matches_reference(entry.problem);
  }
}

/// A random problem with `alpha` inputs and `beta` outputs. Undirected
/// topologies get a symmetric edge table and no endpoint rules, so the
/// problem is orientation-symmetric. Directed paths get a random last-node
/// mask and sometimes a first-node rule: the end checks rarely decide a
/// verdict unless the last node is restricted.
PairwiseProblem random_problem(Rng& rng, std::size_t trial, Topology topology) {
  const std::size_t alpha = 1 + rng.next_below(3);
  const std::size_t beta = 2 + rng.next_below(4);
  Alphabet inputs;
  for (std::size_t i = 0; i < alpha; ++i) {
    inputs.add(std::string("i").append(std::to_string(i)));
  }
  Alphabet outputs;
  for (std::size_t o = 0; o < beta; ++o) {
    outputs.add(std::string("o").append(std::to_string(o)));
  }
  const std::string name = std::string("random#").append(std::to_string(trial));
  PairwiseProblem problem(name, inputs, outputs, topology);
  for (Label i = 0; i < alpha; ++i) {
    bool any = false;
    for (Label o = 0; o < beta; ++o) {
      if (rng.next_bool(2, 3)) {
        problem.allow_node(i, o);
        any = true;
      }
    }
    if (!any) problem.allow_node(i, static_cast<Label>(rng.next_below(beta)));
  }
  const bool symmetric = !is_directed(topology);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = symmetric ? a : 0; b < beta; ++b) {
      if (!rng.next_bool(2, 3)) continue;
      problem.allow_edge(a, b);
      if (symmetric) problem.allow_edge(b, a);
    }
  }
  if (topology == Topology::kDirectedPath) {
    if (rng.next_bool()) {
      for (Label i = 0; i < alpha; ++i) {
        problem.allow_node_first(i, static_cast<Label>(rng.next_below(beta)));
      }
    }
    for (Label o = 0; o < beta; ++o) {
      if (rng.next_bool()) problem.forbid_last(o);
    }
  }
  return problem;
}

TEST(ConstGapDiff, MatchesReferenceOnRandomProblems) {
  Rng rng(161803);
  const Topology topologies[] = {Topology::kDirectedCycle, Topology::kDirectedPath,
                                 Topology::kUndirectedCycle, Topology::kUndirectedPath};
  std::size_t feasible = 0;
  constexpr std::size_t kTrials = 4000;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    feasible += expect_matches_reference(random_problem(rng, trial, topologies[trial % 4]));
  }
  // Both verdicts must be well represented for the sweep to mean anything.
  EXPECT_GE(feasible, kTrials / 10);
  EXPECT_LE(feasible, kTrials - kTrials / 10);
}

TEST(ConstGapDiff, MatchesReferenceOnUndirectedLifts) {
  const PairwiseProblem sources[] = {
      catalog::coloring(3, Topology::kDirectedPath),
      catalog::two_coloring(Topology::kDirectedPath),
      catalog::constant_output(Topology::kDirectedPath),
      catalog::constant_output(),
      catalog::always_accept(),
      catalog::copy_input(),
      catalog::shift_input(),  // monoid 930: the heaviest lift the reference affords
  };
  for (const PairwiseProblem& source : sources) {
    expect_matches_reference(hardness::lift_to_undirected(source));
  }
}

}  // namespace
}  // namespace lclpath
