// Differential tests for solve_by_dp / complete_by_dp against the per-node
// BitVector dynamic program in dp_oracle.hpp. The library's word-mask
// kernel must return the very same labeling (the lexicographically
// smallest valid one) or the same nullopt on seeded random problems of all
// four topologies, with output alphabets on both sides of the one-word
// (64-label) and two-word (128-label) boundaries, random first-node rules,
// last masks and pins, and on the 10^6-node words of the Theta(n) problems
// the synthesized-simulation benchmark solves whole. The DpChunked suite
// checks the byte kernel of long words over at most 8 labels at every
// chunk count, inline and on a pool (the TSan job runs it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "dp_oracle.hpp"
#include "lcl/catalog.hpp"
#include "lcl/verifier.hpp"

namespace lclpath {
namespace {

using testing::oracle_complete_by_dp;
using testing::oracle_solve_by_dp;

constexpr Topology kTopologies[] = {Topology::kDirectedPath, Topology::kDirectedCycle,
                                    Topology::kUndirectedPath, Topology::kUndirectedCycle};

Alphabet labels(const char* prefix, std::size_t size) {
  Alphabet alphabet;
  for (std::size_t i = 0; i < size; ++i) {
    alphabet.add(std::string(prefix).append(std::to_string(i)));
  }
  return alphabet;
}

/// True with probability num / den, num clamped to den.
bool chance(Rng& rng, std::uint64_t num, std::uint64_t den) {
  return rng.next_bool(std::min(num, den), den);
}

/// A seeded random problem: 1-4 inputs, `beta` outputs, C_node and C_edge
/// densities drawn per problem (from about one allowed pair per row up to
/// one half), a first-node rule and a last mask each half the time.
/// Undirected topologies get a symmetric edge relation.
PairwiseProblem random_problem(Rng& rng, std::size_t beta, Topology topology) {
  const std::size_t alpha = 1 + rng.next_below(4);
  PairwiseProblem problem("random", labels("i", alpha), labels("o", beta), topology);
  const std::uint64_t den = 2 * beta;
  const std::uint64_t edge_num = std::uint64_t{1} << rng.next_below(4);  // 1, 2, 4 or 8
  const std::uint64_t node_num = rng.next_bool() ? 3 : beta;
  for (Label i = 0; i < alpha; ++i) {
    for (Label o = 0; o < beta; ++o) {
      if (chance(rng, node_num, den)) problem.allow_node(i, o);
    }
  }
  const bool symmetric = !is_directed(topology);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = symmetric ? a : 0; b < beta; ++b) {
      if (!chance(rng, rng.next_bool(1, 4) ? beta : edge_num, den)) continue;
      problem.allow_edge(a, b);
      if (symmetric) problem.allow_edge(b, a);
    }
  }
  if (rng.next_bool()) {
    for (Label i = 0; i < alpha; ++i) {
      for (Label o = 0; o < beta; ++o) {
        if (chance(rng, node_num, den)) problem.allow_node_first(i, o);
      }
    }
  }
  if (rng.next_bool()) {
    BitVector last(beta);
    for (Label o = 0; o < beta; ++o) last.set(o, rng.next_bool(3, 4));
    problem.restrict_last(last);
  }
  return problem;
}

/// Compares solve_by_dp and complete_by_dp with the oracle on one input
/// word; returns whether complete_by_dp found a labeling.
bool expect_matches_oracle(const PairwiseProblem& problem, const Word& inputs,
                           const std::vector<std::optional<Label>>& pins) {
  const std::optional<Word> got = complete_by_dp(problem, inputs, pins);
  const std::optional<Word> want = oracle_complete_by_dp(problem, inputs, pins);
  EXPECT_EQ(got, want) << "complete_by_dp, n = " << inputs.size();
  EXPECT_EQ(solve_by_dp(problem, inputs), oracle_solve_by_dp(problem, inputs))
      << "solve_by_dp, n = " << inputs.size();
  if (got) {
    EXPECT_TRUE(verify_pairwise(problem, inputs, *got).ok);
    for (std::size_t v = 0; v < pins.size(); ++v) {
      if (pins[v]) {
        EXPECT_EQ((*got)[v], *pins[v]) << "pin at " << v;
      }
    }
  }
  return got.has_value();
}

TEST(DpKernelDiff, RandomProblemsMatchTheOracle) {
  constexpr std::size_t kBetas[] = {1, 2, 7, 8, 9, 63, 64, 65, 130};
  constexpr std::size_t kCasesPerBeta = 2300;
  std::size_t cases = 0;
  std::size_t feasible = 0;
  std::size_t pinned = 0;
  Rng rng(20261018);
  for (const std::size_t beta : kBetas) {
    for (std::size_t c = 0; c < kCasesPerBeta; ++c) {
      const Topology topology = kTopologies[c % 4];
      const PairwiseProblem problem = random_problem(rng, beta, topology);
      const std::size_t n = 1 + rng.next_below(64);
      Word inputs(n);
      for (Label& in : inputs) in = static_cast<Label>(rng.next_below(problem.num_inputs()));
      std::vector<std::optional<Label>> pins(n);
      if (rng.next_bool()) {
        for (std::optional<Label>& pin : pins) {
          if (rng.next_bool(1, 8)) pin = static_cast<Label>(rng.next_below(beta));
        }
        ++pinned;
      }
      SCOPED_TRACE("beta " + std::to_string(beta) + ", case " + std::to_string(c) + ", " +
                   to_string(topology));
      if (expect_matches_oracle(problem, inputs, pins)) ++feasible;
      ++cases;
      if (::testing::Test::HasFailure()) return;
    }
  }
  std::printf("%zu cases (%zu with pins), %zu feasible\n", cases, pinned, feasible);
  EXPECT_GE(cases, 20000u);
  // Both outcomes must be well represented, or the comparison is one-sided.
  EXPECT_GE(feasible, cases / 5);
  EXPECT_LE(feasible, cases - cases / 5);
}

TEST(DpKernelDiff, ShortWordsOfTheCatalogMatchTheOracle) {
  Rng rng(7);
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    const PairwiseProblem& problem = entry.problem;
    for (std::size_t n = 1; n <= 24; ++n) {
      Word inputs(n);
      for (Label& in : inputs) in = static_cast<Label>(rng.next_below(problem.num_inputs()));
      std::vector<std::optional<Label>> pins(n);
      pins[rng.next_below(n)] = static_cast<Label>(rng.next_below(problem.num_outputs()));
      SCOPED_TRACE(problem.name() + " on " + to_string(problem.topology()));
      expect_matches_oracle(problem, inputs, std::vector<std::optional<Label>>(n));
      expect_matches_oracle(problem, inputs, pins);
    }
  }
}

TEST(DpKernelDiff, MillionNodeThetaNWordsMatchTheOracle) {
  const PairwiseProblem problems[] = {catalog::agreement(Topology::kDirectedCycle),
                                      catalog::two_coloring(Topology::kDirectedPath),
                                      catalog::two_coloring(Topology::kUndirectedPath)};
  Rng rng(1);
  for (const PairwiseProblem& problem : problems) {
    SCOPED_TRACE(problem.name() + " on " + to_string(problem.topology()));
    Word inputs(1000000);
    for (Label& in : inputs) in = static_cast<Label>(rng.next_below(problem.num_inputs()));
    const std::optional<Word> got = solve_by_dp(problem, inputs);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == *oracle_solve_by_dp(problem, inputs));
  }
}

TEST(DpKernelDiff, BadInputLabelThrowsTheSameMessage) {
  const PairwiseProblem path = catalog::two_coloring(Topology::kDirectedPath);
  PairwiseProblem with_first = path;
  with_first.allow_node_first(0, 0);
  const PairwiseProblem cycle = catalog::coloring(3, Topology::kDirectedCycle);
  const auto message = [](auto&& solve) -> std::string {
    try {
      solve();
    } catch (const std::out_of_range& e) {
      return e.what();
    }
    return "no throw";
  };
  for (const PairwiseProblem* problem : {&path, &std::as_const(with_first), &cycle}) {
    for (const std::size_t bad_at : {0, 3}) {
      Word inputs(5, 0);
      inputs[bad_at] = 9;
      const std::vector<std::optional<Label>> pins(inputs.size());
      const std::string got = message([&] { (void)complete_by_dp(*problem, inputs, pins); });
      EXPECT_EQ(got, message([&] { (void)oracle_complete_by_dp(*problem, inputs, pins); }));
      EXPECT_EQ(got, message([&] { (void)solve_by_dp(*problem, inputs); }));
      EXPECT_NE(got, "no throw");
    }
  }
  // An earlier node without any candidate is infeasible before the bad
  // label is read, as it always was.
  PairwiseProblem gated("gated", labels("i", 2), labels("o", 2), Topology::kDirectedPath);
  for (Label i = 0; i < 2; ++i) gated.allow_node(i, 0);
  gated.allow_edge(0, 0);
  gated.allow_node_first(0, 0);
  const Word inputs = {1, 9};  // input 1 has no first-node output
  EXPECT_EQ(solve_by_dp(gated, inputs), std::nullopt);
  EXPECT_EQ(oracle_solve_by_dp(gated, inputs), std::nullopt);
}

TEST(DpKernelDiff, PinOutsideTheOutputAlphabetThrows) {
  for (const std::size_t beta : {3, 65}) {
    PairwiseProblem problem("coloring", labels("i", 1), labels("o", beta),
                            Topology::kDirectedPath);
    for (Label o = 0; o < beta; ++o) problem.allow_node(0, o);
    for (Label a = 0; a < beta; ++a) {
      for (Label b = 0; b < beta; ++b) {
        if (a != b) problem.allow_edge(a, b);
      }
    }
    const Word inputs(6, 0);
    std::vector<std::optional<Label>> pins(inputs.size());
    for (const Label bad : {static_cast<Label>(beta), Label{64}, Label{128}, Label{1000}}) {
      if (bad < beta) continue;
      pins[4] = bad;
      EXPECT_THROW((void)complete_by_dp(problem, inputs, pins), std::out_of_range)
          << "beta " << beta << ", pin " << bad;
    }
    // The largest label is a valid pin.
    pins[4] = static_cast<Label>(beta - 1);
    const std::optional<Word> got = complete_by_dp(problem, inputs, pins);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got, oracle_complete_by_dp(problem, inputs, pins));
  }
}

TEST(DpKernelDiff, EmptyWordsAndMismatchedPinsAreInfeasible) {
  const PairwiseProblem problem = catalog::coloring(3, Topology::kDirectedPath);
  EXPECT_EQ(solve_by_dp(problem, {}), std::nullopt);
  EXPECT_EQ(complete_by_dp(problem, {}, {}), std::nullopt);
  EXPECT_EQ(complete_by_dp(problem, Word(4, 0), std::vector<std::optional<Label>>(3)),
            std::nullopt);
}

// ---- The chunked byte kernel ------------------------------------------

constexpr std::size_t kChunkCounts[] = {1, 2, 3, 4, 7};

/// PathDp::complete_chunked at every chunk count, inline and on `pool`,
/// against the oracle: the same labeling or the same nullopt, or the same
/// out_of_range message.
void expect_chunked_matches_oracle(const PairwiseProblem& problem, const Word& inputs,
                                   const std::vector<std::optional<Label>>& pins,
                                   ThreadPool& pool) {
  const auto outcome = [](auto&& solve) -> std::string {
    try {
      const std::optional<Word> got = solve();
      if (!got) return "nullopt";
      std::string text = "labels";
      for (const Label b : *got) text.append(" ").append(std::to_string(b));
      return text;
    } catch (const std::out_of_range& e) {
      return std::string("throws ") + e.what();
    }
  };
  const std::vector<std::optional<Label>> oracle_pins =
      pins.empty() ? std::vector<std::optional<Label>>(inputs.size()) : pins;
  const std::string want =
      outcome([&] { return oracle_complete_by_dp(problem, inputs, oracle_pins); });
  PathDp dp(problem);
  for (const std::size_t chunks : kChunkCounts) {
    for (ThreadPool* on : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string got = outcome([&]() -> std::optional<Word> {
        Word out;
        if (!dp.complete_chunked(inputs, pins, out, chunks, on)) return std::nullopt;
        return out;
      });
      const char* where = on != nullptr ? " on the pool" : " inline";
      EXPECT_EQ(got, want) << chunks << " chunks" << where << ", n = " << inputs.size();
    }
  }
}

TEST(DpChunked, RandomProblemsMatchTheOracleAtEveryChunkCount) {
  constexpr std::size_t kBetas[] = {1, 2, 5, 8, 9};
  constexpr std::size_t kCasesPerBeta = 400;
  ThreadPool pool(3);
  Rng rng(20261020);
  std::size_t feasible = 0;
  std::size_t cases = 0;
  for (const std::size_t beta : kBetas) {
    for (std::size_t c = 0; c < kCasesPerBeta; ++c) {
      const Topology topology = kTopologies[c % 4];
      const PairwiseProblem problem = random_problem(rng, beta, topology);
      // A quarter of the words are shorter than some chunk counts.
      const std::size_t n = 1 + (c % 4 == 3 ? rng.next_below(6) : rng.next_below(160));
      Word inputs(n);
      for (Label& in : inputs) in = static_cast<Label>(rng.next_below(problem.num_inputs()));
      std::vector<std::optional<Label>> pins;
      if (rng.next_bool(1, 3)) {
        pins.resize(n);
        for (std::optional<Label>& pin : pins) {
          if (rng.next_bool(1, 16)) pin = static_cast<Label>(rng.next_below(beta));
        }
      }
      SCOPED_TRACE("beta " + std::to_string(beta) + ", case " + std::to_string(c) + ", " +
                   to_string(topology));
      expect_chunked_matches_oracle(problem, inputs, pins, pool);
      if (oracle_complete_by_dp(problem, inputs,
                                pins.empty() ? std::vector<std::optional<Label>>(n) : pins)) {
        ++feasible;
      }
      ++cases;
      if (::testing::Test::HasFailure()) return;
    }
  }
  std::printf("%zu cases, %zu feasible\n", cases, feasible);
  EXPECT_GE(feasible, cases / 5);
  EXPECT_LE(feasible, cases - cases / 5);
}

/// Two inputs over labels {0, 1}: input 0 allows both, input 1 allows 1
/// only, and input 2 allows nothing. Edges 0 -> 0, 0 -> 1 and 1 -> 1, so a
/// labeling never steps back from 1 to 0: a cycle must be constant, and a
/// word whose node v has input 1 labels everything from v on with 1.
PairwiseProblem monotone(Topology topology) {
  PairwiseProblem problem("monotone", labels("i", 3), labels("o", 2), topology);
  problem.allow_node(0, 0);
  problem.allow_node(0, 1);
  problem.allow_node(1, 1);
  problem.allow_edge(0, 0);
  problem.allow_edge(0, 1);
  problem.allow_edge(1, 1);
  return problem;
}

TEST(DpChunked, InfeasibleInAMiddleChunk) {
  ThreadPool pool(4);
  constexpr std::size_t n = 70;  // chunk 3 of 7 is [30, 40)
  for (const Topology topology : {Topology::kDirectedPath, Topology::kDirectedCycle}) {
    const PairwiseProblem problem = monotone(topology);
    SCOPED_TRACE(to_string(topology));
    // An empty candidate set first found in a middle chunk.
    Word inputs(n, 0);
    inputs[35] = 2;
    inputs[60] = 2;
    expect_chunked_matches_oracle(problem, inputs, {}, pool);
    // Every candidate set nonempty, but a 1 pinned before a 0 at 36: the
    // backward pass empties node 35 and everything before it.
    std::vector<std::optional<Label>> pins(n);
    pins[34] = 1;
    pins[36] = 0;
    inputs.assign(n, 0);
    expect_chunked_matches_oracle(problem, inputs, pins, pool);
    PathDp dp(problem);
    Word out;
    EXPECT_FALSE(dp.complete_chunked(inputs, pins, out, 7, &pool));
  }
}

TEST(DpChunked, CycleWhoseSmallestFirstLabelDoesNotClose) {
  ThreadPool pool(4);
  const PairwiseProblem problem = monotone(Topology::kDirectedCycle);
  for (const std::size_t n : {1, 2, 5, 9, 70}) {
    for (std::size_t at = 1; at < n; at += 1 + n / 8) {
      // Node 0 may take 0 or 1, but input 1 at `at` forces 1 there, and a
      // constant cycle then needs 1 everywhere: label 0 first never closes.
      Word inputs(n, 0);
      inputs[at] = 1;
      SCOPED_TRACE("n " + std::to_string(n) + ", forced at " + std::to_string(at));
      expect_chunked_matches_oracle(problem, inputs, {}, pool);
      PathDp dp(problem);
      Word out;
      ASSERT_TRUE(dp.complete_chunked(inputs, {}, out, 7, &pool));
      EXPECT_EQ(out, Word(n, 1));
    }
  }
}

TEST(DpChunked, EarliestEventDecidesBetweenNulloptAndThrow) {
  ThreadPool pool(4);
  constexpr std::size_t n = 70;
  for (const Topology topology : kTopologies) {
    const PairwiseProblem problem = monotone(topology);
    SCOPED_TRACE(to_string(topology));
    PathDp dp(problem);
    Word out;
    for (const std::size_t chunks : kChunkCounts) {
      // An empty set in an early chunk before a bad label in a later one.
      Word inputs(n, 0);
      inputs[12] = 2;
      inputs[65] = 9;
      EXPECT_FALSE(dp.complete_chunked(inputs, {}, out, chunks, &pool)) << chunks;
      expect_chunked_matches_oracle(problem, inputs, {}, pool);
      // The reverse order throws the accessor's message.
      inputs[12] = 9;
      inputs[65] = 2;
      EXPECT_THROW((void)dp.complete_chunked(inputs, {}, out, chunks, &pool),
                   std::out_of_range)
          << chunks;
      expect_chunked_matches_oracle(problem, inputs, {}, pool);
    }
  }
}

TEST(DpChunked, PooledLongWordsMatchTheOracle) {
  // Above kChunkedMinNodes, complete() with a pool cuts the word into one
  // chunk per worker.
  const PairwiseProblem problems[] = {catalog::agreement(Topology::kDirectedCycle),
                                      catalog::two_coloring(Topology::kDirectedPath),
                                      catalog::two_coloring(Topology::kUndirectedPath),
                                      catalog::coloring(3, Topology::kUndirectedCycle)};
  ThreadPool pool(4);
  Rng rng(2);
  const std::size_t n = PathDp::kChunkedMinNodes + 12345;
  for (const PairwiseProblem& problem : problems) {
    SCOPED_TRACE(problem.name() + " on " + to_string(problem.topology()));
    Word inputs(n);
    for (Label& in : inputs) in = static_cast<Label>(rng.next_below(problem.num_inputs()));
    PathDp dp(problem);
    Word out;
    ASSERT_TRUE(dp.complete(inputs, {}, out, &pool));
    EXPECT_TRUE(out == *oracle_solve_by_dp(problem, inputs));
  }
}

}  // namespace
}  // namespace lclpath
