// Regression tests for the PR-1 stack-overflow family: classifying
// hardness::lift_to_undirected(...) of directed-path catalog problems.
// PR 1 fixed the segfault (deep recursion in the pair-wise search) but the
// quadratic point-pair sweep remained effectively non-terminating on the
// ~10^5-point lifted domains; the factorized aggregate engine classifies
// them in well under a second, so the whole family is pinned here under a
// tight ctest timeout (see CMakeLists.txt).
//
// Expected classes: the lift's orientation counter hands every node its
// position mod 3 — a free 3-coloring — so symmetry breaking is free and
// every Theta(log* n) source collapses to O(1) (e.g. 3-coloring: output
// the color indexed by the input counter; counter-defect edges only admit
// escape tags or are "broken" and unconstrained among normal tags).
// Theta(n) sources stay Theta(n): a mod-3 counter yields neither parity
// (2-coloring) nor global agreement.
#include <gtest/gtest.h>

#include <span>

#include "decide/classifier.hpp"
#include "hardness/undirected.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

ClassifiedProblem classify_lift(const PairwiseProblem& source) {
  return classify(hardness::lift_to_undirected(source));
}

TEST(LiftedUndirectedRegression, ColoringPathIsClassifiable) {
  // The ROADMAP headline case: monoid 90, ~7 * 10^5 domain points. Used to
  // stack-overflow (pre PR 1), then to grind forever; now sub-second.
  const ClassifiedProblem result =
      classify_lift(catalog::coloring(3, Topology::kDirectedPath));
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
  EXPECT_EQ(result.monoid_size(), 90u);
  EXPECT_TRUE(result.linear_certificate().feasible);
  EXPECT_TRUE(result.const_certificate().feasible);
}

TEST(LiftedUndirectedRegression, TwoColoringPathStaysLinear) {
  const ClassifiedProblem result =
      classify_lift(catalog::two_coloring(Topology::kDirectedPath));
  EXPECT_EQ(result.complexity(), ComplexityClass::kLinear) << result.summary();
  EXPECT_FALSE(result.linear_certificate().feasible);
}

TEST(LiftedUndirectedRegression, ConstantOutputPathStaysConstant) {
  const ClassifiedProblem result =
      classify_lift(catalog::constant_output(Topology::kDirectedPath));
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
}

TEST(LiftedUndirectedRegression, ColoringCycleIsClassifiable) {
  // Cycle flavor of the same family.
  const ClassifiedProblem result = classify_lift(catalog::coloring(3));
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
}

TEST(LiftedUndirectedRegression, ShiftInputCycleLiftClassifiesThroughLazyCertificate) {
  // The ISSUE 5 headline case: monoid 930, ~2.9 * 10^7 domain points. The
  // factorized search (PR 2) made the *decision* fast, but materializing
  // the certificate tables still took ~30 s and GBs of hash map; the lazy
  // class-indexed certificate classifies this end-to-end in ~1 s and MBs.
  // This test runs under the binary's tight ctest TIMEOUT, so a regression
  // back to eager materialization fails loudly.
  const ClassifiedProblem result = classify_lift(catalog::shift_input());
  EXPECT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
  EXPECT_EQ(result.monoid_size(), 930u);
  ASSERT_TRUE(result.linear_certificate().feasible);
  EXPECT_EQ(result.linear_certificate().domain_size(), 29160000u);
  // Spot-check the lazy feasible function through the same lookup the
  // synthesized algorithm would issue: every domain point has a value, and
  // its reversed point (undirected topology) resolves too.
  const Monoid& monoid = result.monoid();
  const LayerCycle layers = monoid.layer_cycle();
  const std::span<const std::size_t> layer = layers.at(result.linear_certificate().ell_ctx);
  ASSERT_FALSE(layer.empty());
  const BlockPoint probe{BlockKind::kInterior, layer.front(), 0, 1, layer.back()};
  const BlockValue value = result.linear_certificate().value_at(probe);
  EXPECT_TRUE(result.linear_certificate().contains(probe.reversed(monoid)));
  const BlockValue rev_value =
      result.linear_certificate().value_at(probe.reversed(monoid));
  EXPECT_LT(value.a, result.problem().num_outputs());
  EXPECT_LT(rev_value.a, result.problem().num_outputs());
}

TEST(LiftedUndirectedRegression, LiftedSolvabilityIsPreserved) {
  // The classifier end of the solvability round-trips hardness_test pins:
  // two_coloring's lift is solvable on paths (odd cycles are the obstacle).
  const ClassifiedProblem result =
      classify_lift(catalog::two_coloring(Topology::kDirectedPath));
  EXPECT_TRUE(result.solvability().solvable);
}

// ISSUE 3: the lifted O(1) problems must synthesize *runnable* constant
// algorithms on their undirected topologies — no gather-all fallback. The
// monoid-90 certificates keep the structured-regime radii large even
// under the per-problem margins (the seed-domination term scales with
// the input-alphabet size times the claim scale), so execution here is
// pinned in the full-view regime (n below the radius, where radius(n)
// clamps to the full-view threshold and the canonical solve answers);
// sub-linearity is pinned by the radius being a constant far below a
// huge n.
void ExpectLiftSynthesizesConstant(const PairwiseProblem& source, std::uint64_t seed) {
  const PairwiseProblem lifted = hardness::lift_to_undirected(source);
  const ClassifiedProblem result = classify(lifted);
  ASSERT_EQ(result.complexity(), ComplexityClass::kConstant) << result.summary();
  const auto algorithm = result.synthesize();
  EXPECT_NE(algorithm->name(), "gather-all");
  EXPECT_LT(algorithm->radius(std::size_t{1} << 40), std::size_t{1} << 40);
  Rng rng(seed);
  for (std::size_t n : {std::size_t{9}, std::size_t{257}}) {
    Instance instance = random_instance(lifted.topology(), n, lifted.num_inputs(), rng);
    const auto sim = simulate(*algorithm, lifted, instance);
    EXPECT_TRUE(sim.verdict.ok) << "n=" << n << ": " << sim.verdict.reason;
  }
}

TEST(LiftedUndirectedRegression, ColoringPathLiftSynthesizesConstant) {
  ExpectLiftSynthesizesConstant(catalog::coloring(3, Topology::kDirectedPath), 301);
}

TEST(LiftedUndirectedRegression, ConstantOutputPathLiftSynthesizesConstant) {
  ExpectLiftSynthesizesConstant(catalog::constant_output(Topology::kDirectedPath), 302);
}

TEST(LiftedUndirectedRegression, ColoringCycleLiftSynthesizesConstant) {
  ExpectLiftSynthesizesConstant(catalog::coloring(3), 303);
}

}  // namespace
}  // namespace lclpath
