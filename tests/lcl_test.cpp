#include <gtest/gtest.h>

#include "decide/classifier.hpp"
#include "lcl/catalog.hpp"
#include "lcl/compile.hpp"
#include "lcl/serialize.hpp"
#include "lcl/verifier.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

using testing::all_valid_labelings;

TEST(Problem, ConstraintsAndDescribe) {
  PairwiseProblem p = catalog::coloring(3);
  EXPECT_TRUE(p.node_ok(0, 0));
  EXPECT_TRUE(p.edge_ok(0, 1));
  EXPECT_FALSE(p.edge_ok(1, 1));
  EXPECT_TRUE(p.is_orientation_symmetric());
  EXPECT_NE(p.describe().find("3-coloring"), std::string::npos);
}

TEST(Problem, ReversedSwapsEdges) {
  PairwiseProblem p = catalog::agreement();
  PairwiseProblem r = p.reversed();
  for (Label a = 0; a < p.num_outputs(); ++a) {
    for (Label b = 0; b < p.num_outputs(); ++b) {
      EXPECT_EQ(p.edge_ok(a, b), r.edge_ok(b, a));
    }
  }
}

TEST(Problem, FirstAndLastNodeRules) {
  Alphabet in({"_"});
  Alphabet out({"s", "m", "t"});
  PairwiseProblem p("endpoints", in, out, Topology::kDirectedPath);
  p.allow_node("_", "m");
  p.allow_node("_", "t");
  p.allow_node_first("_", "s");
  for (Label a = 0; a < 3; ++a)
    for (Label b = 0; b < 3; ++b) p.allow_edge(a, b);
  p.forbid_last(out.at("m"));
  // s only at the start, m never at the end.
  EXPECT_TRUE(verify_pairwise(p, {0, 0, 0}, {0, 1, 2}).ok);
  EXPECT_FALSE(verify_pairwise(p, {0, 0, 0}, {1, 1, 2}).ok);  // m at start
  EXPECT_FALSE(verify_pairwise(p, {0, 0, 0}, {0, 1, 1}).ok);  // m at end
  EXPECT_FALSE(verify_pairwise(p, {0, 0, 0}, {0, 0, 2}).ok);  // s in middle
  // The DP respects both.
  const auto solved = solve_by_dp(p, {0, 0, 0});
  ASSERT_TRUE(solved.has_value());
  EXPECT_TRUE(verify_pairwise(p, {0, 0, 0}, *solved).ok);
  EXPECT_EQ((*solved)[0], out.at("s"));
}

TEST(Verifier, ColoringOnCycles) {
  PairwiseProblem p = catalog::coloring(3);
  EXPECT_TRUE(verify_pairwise(p, {0, 0, 0}, {0, 1, 2}).ok);
  EXPECT_FALSE(verify_pairwise(p, {0, 0, 0}, {0, 1, 1}).ok);
  // Wrap edge: 0 1 0 closes 0 -> 0 on a cycle.
  EXPECT_FALSE(verify_pairwise(p, {0, 0, 0, 0}, {0, 1, 0, 0}).ok);
  PairwiseProblem path = catalog::coloring(3, Topology::kDirectedPath);
  EXPECT_TRUE(verify_pairwise(path, {0, 0, 0}, {0, 1, 0}).ok);
}

TEST(Verifier, DpMatchesBruteForceOnRandomProblems) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    // Random small problem.
    const std::size_t alpha = 1 + rng.next_below(2);
    const std::size_t beta = 1 + rng.next_below(3);
    Alphabet in, out;
    for (std::size_t i = 0; i < alpha; ++i) in.add(std::string("i").append(std::to_string(i)));
    for (std::size_t o = 0; o < beta; ++o) out.add(std::string("o").append(std::to_string(o)));
    const Topology topology =
        rng.next_bool() ? Topology::kDirectedCycle : Topology::kDirectedPath;
    PairwiseProblem p("rnd", in, out, topology);
    for (Label i = 0; i < alpha; ++i)
      for (Label o = 0; o < beta; ++o)
        if (rng.next_bool(2, 3)) p.allow_node(i, o);
    for (Label a = 0; a < beta; ++a)
      for (Label b = 0; b < beta; ++b)
        if (rng.next_bool(2, 3)) p.allow_edge(a, b);

    const std::size_t n = 1 + rng.next_below(5);
    Word inputs;
    for (std::size_t v = 0; v < n; ++v) {
      inputs.push_back(static_cast<Label>(rng.next_below(alpha)));
    }
    const auto brute = all_valid_labelings(p, inputs);
    const auto dp = solve_by_dp(p, inputs);
    ASSERT_EQ(dp.has_value(), !brute.empty())
        << "trial " << trial << " topology " << to_string(topology);
    if (dp) {
      EXPECT_TRUE(verify_pairwise(p, inputs, *dp).ok);
      // Lexicographically smallest.
      EXPECT_EQ(*dp, brute.front());
    }
  }
}

TEST(Verifier, CompleteByDpRespectsFixedPositions) {
  PairwiseProblem p = catalog::coloring(3, Topology::kDirectedPath);
  Word inputs(6, 0);
  std::vector<std::optional<Label>> fixed(6);
  fixed[0] = 2;
  fixed[5] = 2;
  const auto completion = complete_by_dp(p, inputs, fixed);
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ((*completion)[0], 2u);
  EXPECT_EQ((*completion)[5], 2u);
  EXPECT_TRUE(verify_pairwise(p, inputs, *completion).ok);
}

TEST(Verifier, LocallyConsistentAt) {
  PairwiseProblem p = catalog::coloring(2);
  const Word in{0, 0, 0, 0};
  const Word out{0, 1, 1, 1};
  EXPECT_TRUE(locally_consistent_at(p, in, out, 1, true));
  EXPECT_FALSE(locally_consistent_at(p, in, out, 2, true));
  // The wrap edge out[3] = 1 -> out[0] = 0 is proper, so index 0 is fine.
  EXPECT_TRUE(locally_consistent_at(p, in, out, 0, true));
  // On a path, index 0 has no predecessor check at all.
  EXPECT_TRUE(locally_consistent_at(p, in, {0, 1, 0, 1}, 0, false));
}

TEST(Catalog, AgreementSemantics) {
  PairwiseProblem p = catalog::agreement();
  const Label sa = p.inputs().at("sa");
  const Label zero = p.inputs().at("0");
  const Label SA = p.outputs().at("Sa");
  const Label A = p.outputs().at("A");
  const Label E = p.outputs().at("E");
  // Single marker: the secret propagates.
  EXPECT_TRUE(verify_pairwise(p, {sa, zero, zero}, {SA, A, A}).ok);
  // No marker: all-E is fine, mixed is not.
  EXPECT_TRUE(verify_pairwise(p, {zero, zero, zero}, {E, E, E}).ok);
  EXPECT_FALSE(verify_pairwise(p, {zero, zero, zero}, {E, A, E}).ok);
  // Marker present: E impossible anywhere.
  EXPECT_FALSE(verify_pairwise(p, {sa, zero, zero}, {SA, E, E}).ok);
  // The b-secret cannot follow an sa marker.
  const Label B = p.outputs().at("B");
  EXPECT_FALSE(verify_pairwise(p, {sa, zero, zero}, {SA, B, B}).ok);
}

TEST(Catalog, ValidationCatalogShapes) {
  const auto entries = catalog::validation_catalog();
  EXPECT_GE(entries.size(), 12u);
  for (const auto& e : entries) {
    EXPECT_GE(e.problem.num_outputs(), 1u) << e.problem.name();
    EXPECT_GE(e.problem.num_inputs(), 1u) << e.problem.name();
  }
}

TEST(Serialize, RoundTripsEveryCatalogProblem) {
  for (const auto& entry : catalog::validation_catalog()) {
    const std::string text = serialize(entry.problem);
    const PairwiseProblem parsed = parse_problem(text);
    EXPECT_EQ(parsed, entry.problem) << entry.problem.name();
    EXPECT_EQ(parsed.name(), entry.problem.name());
  }
}

TEST(Serialize, RoundTripsEndpointConstraints) {
  // `first` / `last` lines keep path-endpoint constraints lossless.
  PairwiseProblem p = catalog::coloring(3, Topology::kDirectedPath);
  p.allow_node_first("_", "c0");
  p.allow_node_first("_", "c1");
  p.forbid_last(2);
  const std::string text = serialize(p);
  EXPECT_NE(text.find("first _ c0"), std::string::npos);
  EXPECT_NE(text.find("last c0 c1"), std::string::npos);
  const PairwiseProblem parsed = parse_problem(text);
  EXPECT_EQ(parsed, p);
  EXPECT_TRUE(parsed.has_first_constraint());
  EXPECT_FALSE(parsed.last_ok(2));
}

TEST(Serialize, ParsesConcatenatedProblems) {
  const std::string text = serialize(catalog::coloring(3)) + "\n# comment\n\n" +
                           serialize(catalog::maximal_independent_set()) +
                           "  # indented trailing comment\n";
  const std::vector<PairwiseProblem> problems = parse_problems(text);
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_EQ(problems[0], catalog::coloring(3));
  EXPECT_EQ(problems[1], catalog::maximal_independent_set());
  EXPECT_TRUE(parse_problems(std::string("# only comments\n\n")).empty());
  EXPECT_THROW(parse_problems(std::string("inputs a\noutputs x\nnode a x\n")),
               std::invalid_argument);
}

TEST(Serialize, MultipleLastLinesAccumulate) {
  PairwiseProblem p = catalog::coloring(3, Topology::kDirectedPath);
  p.forbid_last(2);
  std::string text = serialize(p);
  // Split "last c0 c1" into two lines; the union must round-trip the same.
  const std::size_t at = text.find("last c0 c1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "last c0\nlast c1");
  EXPECT_EQ(parse_problem(text), p);
}

TEST(Serialize, RandomizedRoundTripPreservesIdentityAndClass) {
  // Property sweep: randomized problems — including path problems with
  // `first`/`last` endpoint constraints, the lines PR 1 added — must
  // survive serialize -> parse_problems with identical canonical
  // key/hash and identical classification.
  Rng rng(424242);
  const Topology topologies[] = {Topology::kDirectedCycle, Topology::kDirectedPath,
                                 Topology::kUndirectedCycle, Topology::kUndirectedPath};
  std::string concatenated;
  std::vector<PairwiseProblem> originals;
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const Topology topology = topologies[trial % 4];
    const bool undirected = !is_directed(topology);
    const std::size_t alpha = 1 + rng.next_below(2);
    const std::size_t beta = 2 + rng.next_below(2);
    Alphabet in;
    for (std::size_t i = 0; i < alpha; ++i) in.add(std::string("i").append(std::to_string(i)));
    Alphabet out;
    for (std::size_t o = 0; o < beta; ++o) out.add(std::string("o").append(std::to_string(o)));
    PairwiseProblem p("rt#" + std::to_string(trial), in, out, topology);
    for (Label i = 0; i < alpha; ++i) {
      p.allow_node(i, static_cast<Label>(rng.next_below(beta)));
      for (Label o = 0; o < beta; ++o) {
        if (rng.next_bool()) p.allow_node(i, o);
      }
    }
    for (Label a = 0; a < beta; ++a) {
      for (Label b = undirected ? a : Label{0}; b < beta; ++b) {
        if (rng.next_bool(2, 3)) {
          p.allow_edge(a, b);
          if (undirected) p.allow_edge(b, a);
        }
      }
    }
    if (!is_cycle(topology) && rng.next_bool()) {
      // Endpoint constraints only exist on paths.
      p.allow_node_first(static_cast<Label>(rng.next_below(alpha)),
                         static_cast<Label>(rng.next_below(beta)));
      p.forbid_last(static_cast<Label>(rng.next_below(beta)));
    }
    concatenated += serialize(p) + "\n";
    originals.push_back(std::move(p));
  }

  const std::vector<PairwiseProblem> parsed = parse_problems(concatenated);
  ASSERT_EQ(parsed.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    SCOPED_TRACE(originals[i].name());
    EXPECT_EQ(parsed[i], originals[i]);
    EXPECT_EQ(canonical_key(parsed[i]), canonical_key(originals[i]));
    EXPECT_EQ(canonical_hash(parsed[i]), canonical_hash(originals[i]));
    const ComplexityClass before = classify(originals[i]).complexity();
    const ComplexityClass after = classify(parsed[i]).complexity();
    EXPECT_EQ(before, after) << to_string(before) << " vs " << to_string(after);
  }
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(parse_problem("lcl x\nend\n"), std::invalid_argument);
  EXPECT_THROW(parse_problem("inputs a\noutputs x\nnode b x\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_problem("inputs a\noutputs x\ntopology nonsense\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_problem("inputs a\noutputs x\n"), std::invalid_argument);
}

TEST(Compile, Distance2ColoringWindows) {
  // Distance-2 3-coloring as a radius-1 general problem: outputs in the
  // window must be pairwise distinct.
  Alphabet in({"_"});
  Alphabet out({"c0", "c1", "c2"});
  GeneralProblem g("dist2-3col", in, out, 1, Topology::kDirectedCycle);
  g.allow_where([](const WindowConstraint& w) {
    for (std::size_t i = 0; i < w.outputs.size(); ++i) {
      for (std::size_t j = i + 1; j < w.outputs.size(); ++j) {
        if (w.outputs[i] == w.outputs[j]) return false;
      }
    }
    return true;
  });
  const CompiledProblem compiled = compile_to_pairwise(g);
  // 3 * 2 * 1 = 6 acceptable windows.
  EXPECT_EQ(compiled.pairwise.num_outputs(), 6u);

  // An original valid labeling encodes to a valid compiled labeling.
  const Word inputs(6, 0);
  const Word outputs{0, 1, 2, 0, 1, 2};
  ASSERT_TRUE(verify_general(g, inputs, outputs).ok);
  const Word encoded = compiled.encode(g, inputs, outputs);
  EXPECT_TRUE(verify_pairwise(compiled.pairwise, inputs, encoded).ok);
  EXPECT_EQ(compiled.decode(encoded), outputs);

  // And solving the compiled problem yields a valid original labeling.
  const auto solved = solve_by_dp(compiled.pairwise, inputs);
  ASSERT_TRUE(solved.has_value());
  EXPECT_TRUE(verify_general(g, inputs, compiled.decode(*solved)).ok);

  // Distance-2 coloring is impossible on a 4-cycle with 3 colors? n=4:
  // needs all 4 nodes distinct within radius 1 windows -> 0 1 2 ? with ?
  // != 2,0 (window around 3: 2,?,0) and != 1 (window around 0 wraps) —
  // x=1 fails window at 0... no labeling exists.
  EXPECT_FALSE(solve_by_dp(compiled.pairwise, Word(4, 0)).has_value());
}

TEST(Compile, RejectsPathTopology) {
  Alphabet in({"_"});
  Alphabet out({"x"});
  GeneralProblem g("p", in, out, 1, Topology::kDirectedPath);
  EXPECT_THROW(compile_to_pairwise(g), std::invalid_argument);
}

}  // namespace
}  // namespace lclpath
