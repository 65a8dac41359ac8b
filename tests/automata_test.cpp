#include <gtest/gtest.h>

#include "automata/monoid.hpp"
#include "automata/pumping.hpp"
#include "automata/solvability.hpp"
#include "automata/type.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

using testing::all_valid_labelings;
using testing::automata_fixture;

Word random_word(Rng& rng, std::size_t alpha, std::size_t n) {
  Word w;
  for (std::size_t i = 0; i < n; ++i) w.push_back(static_cast<Label>(rng.next_below(alpha)));
  return w;
}

// N(w)[x][y] == "there is a labeling of w ending in y whose virtual
// predecessor x is compatible", cross-checked against brute force.
TEST(Transition, WordMatrixSemantics) {
  const PairwiseProblem p = automata_fixture();
  const TransitionSystem ts = TransitionSystem::build(p);
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const Word w = random_word(rng, p.num_inputs(), 1 + rng.next_below(4));
    const BitMatrix n = ts.word_matrix(w);
    for (Label x = 0; x < p.num_outputs(); ++x) {
      for (Label y = 0; y < p.num_outputs(); ++y) {
        // Brute force: any labeling z of w with z.back() == y, all node
        // checks, internal edges, and edge(x, z[0]).
        bool expect = false;
        const std::size_t beta = p.num_outputs();
        Word z(w.size(), 0);
        while (!expect) {
          bool ok = z.back() == y && p.edge_ok(x, z[0]);
          for (std::size_t i = 0; i < w.size() && ok; ++i) {
            ok = p.node_ok(w[i], z[i]) && (i == 0 || p.edge_ok(z[i - 1], z[i]));
          }
          expect = ok;
          std::size_t i = z.size();
          bool done = false;
          while (i > 0) {
            --i;
            if (++z[i] < beta) break;
            z[i] = 0;
            if (i == 0) done = true;
          }
          if (done) break;
        }
        ASSERT_EQ(n.get(x, y), expect) << "x=" << x << " y=" << y;
      }
    }
  }
}

TEST(Transition, ReversedMatrixMatchesReversedWord) {
  const PairwiseProblem p = automata_fixture();
  const TransitionSystem ts = TransitionSystem::build(p);
  Rng rng(32);
  for (int trial = 0; trial < 40; ++trial) {
    const Word w = random_word(rng, p.num_inputs(), 1 + rng.next_below(6));
    EXPECT_EQ(ts.word_matrix_reversed(w), ts.word_matrix(reversed(w)));
  }
}

TEST(Transition, PrefixVectorMatchesDp) {
  const PairwiseProblem p = automata_fixture(Topology::kDirectedPath);
  const TransitionSystem ts = TransitionSystem::build(p);
  Rng rng(33);
  for (int trial = 0; trial < 40; ++trial) {
    const Word w = random_word(rng, p.num_inputs(), 1 + rng.next_below(5));
    const BitVector v = ts.prefix_vector(w);
    const auto labelings = all_valid_labelings(
        [&] {
          PairwiseProblem q = p;
          q.set_topology(Topology::kDirectedPath);
          return q;
        }(),
        w);
    BitVector expect(p.num_outputs());
    for (const Word& l : labelings) expect.set(l.back(), true);
    EXPECT_EQ(v, expect) << word_to_string(p.inputs(), w);
  }
}

TEST(Monoid, ElementDataMatchesDirectComputation) {
  const PairwiseProblem p = automata_fixture();
  const TransitionSystem ts = TransitionSystem::build(p);
  const Monoid monoid = Monoid::enumerate(ts);
  EXPECT_GT(monoid.size(), 1u);
  Rng rng(34);
  for (int trial = 0; trial < 60; ++trial) {
    const Word w = random_word(rng, p.num_inputs(), 1 + rng.next_below(10));
    const MonoidElement& e = monoid.element(monoid.of_word(w));
    EXPECT_EQ(e.fwd, ts.word_matrix(w));
    EXPECT_EQ(e.rev, ts.word_matrix(reversed(w)));
    EXPECT_EQ(e.anchored, ts.anchored_matrix(w));
    EXPECT_EQ(e.pvec, ts.prefix_vector(w));
    EXPECT_EQ(e.first, w.front());
    EXPECT_EQ(e.last, w.back());
    // The reconstructed witness maps back to the same element.
    EXPECT_EQ(monoid.of_word(monoid.witness(monoid.of_word(w))), monoid.of_word(w));
  }
}

/// A random problem with `beta` outputs and dense tables (dense tables keep
/// monoids small). Undirected topologies get a symmetric edge table; a
/// directed path sometimes gets a first-node rule.
PairwiseProblem dense_random_problem(Rng& rng, std::size_t beta, Topology topology) {
  const std::size_t alpha = 1 + rng.next_below(2);
  Alphabet inputs;
  for (std::size_t i = 0; i < alpha; ++i) {
    inputs.add(std::string("i").append(std::to_string(i)));
  }
  Alphabet outputs;
  for (std::size_t o = 0; o < beta; ++o) {
    outputs.add(std::string("o").append(std::to_string(o)));
  }
  PairwiseProblem problem("dense", inputs, outputs, topology);
  for (Label i = 0; i < alpha; ++i) {
    for (Label o = 0; o < beta; ++o) {
      if (rng.next_bool(3, 4)) problem.allow_node(i, o);
    }
  }
  const bool symmetric = !is_directed(topology);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = symmetric ? a : 0; b < beta; ++b) {
      if (!rng.next_bool(3, 4)) continue;
      problem.allow_edge(a, b);
      if (symmetric) problem.allow_edge(b, a);
    }
  }
  if (topology == Topology::kDirectedPath && rng.next_bool()) {
    for (Label i = 0; i < alpha; ++i) {
      for (Label o = 0; o < beta; ++o) {
        if (rng.next_bool(1, 2)) problem.allow_node_first(i, o);
      }
    }
  }
  return problem;
}

/// Plain-bool reachability over the labels of `w`: entry [x][y] says some
/// labeling of w passing every node and internal edge check ends in y,
/// where x is a virtual predecessor (anchored = false) or the first label
/// itself (anchored = true).
std::vector<std::vector<bool>> dp_reach(const PairwiseProblem& p, const Word& w,
                                        bool anchored) {
  const std::size_t beta = p.num_outputs();
  std::vector<std::vector<bool>> out(beta, std::vector<bool>(beta, false));
  for (Label x = 0; x < beta; ++x) {
    std::vector<bool> reach(beta, false);
    for (Label z = 0; z < beta; ++z) {
      reach[z] = p.node_ok(w[0], z) && (anchored ? z == x : p.edge_ok(x, z));
    }
    for (std::size_t i = 1; i < w.size(); ++i) {
      std::vector<bool> next(beta, false);
      for (Label from = 0; from < beta; ++from) {
        if (!reach[from]) continue;
        for (Label z = 0; z < beta; ++z) {
          if (p.node_ok(w[i], z) && p.edge_ok(from, z)) next[z] = true;
        }
      }
      reach = std::move(next);
    }
    out[x] = reach;
  }
  return out;
}

/// Plain-bool labels reachable at the end of a path whose first node is
/// w[0] (first-node rule) and which passes every check.
std::vector<bool> dp_prefix(const PairwiseProblem& p, const Word& w) {
  const std::size_t beta = p.num_outputs();
  std::vector<bool> reach(beta, false);
  for (Label z = 0; z < beta; ++z) reach[z] = p.node_first_ok(w[0], z);
  for (std::size_t i = 1; i < w.size(); ++i) {
    std::vector<bool> next(beta, false);
    for (Label from = 0; from < beta; ++from) {
      if (!reach[from]) continue;
      for (Label z = 0; z < beta; ++z) {
        if (p.node_ok(w[i], z) && p.edge_ok(from, z)) next[z] = true;
      }
    }
    reach = std::move(next);
  }
  return reach;
}

void expect_matrix_is(const BitMatrix& m, const std::vector<std::vector<bool>>& expect) {
  ASSERT_EQ(m.dim(), expect.size());
  for (std::size_t x = 0; x < m.dim(); ++x)
    for (std::size_t y = 0; y < m.dim(); ++y) {
      ASSERT_EQ(m.get(x, y), expect[x][y]) << x << "," << y;
    }
}

void expect_vector_is(const BitVector& v, const std::vector<bool>& expect) {
  ASSERT_EQ(v.dim(), expect.size());
  for (std::size_t y = 0; y < v.dim(); ++y) ASSERT_EQ(v.get(y), expect[y]) << y;
}

// The monoid's element data, built by the packed kernels on both sides of
// BitMatrix's inline/heap boundary (8 outputs), against a kernel-free DP.
TEST(Monoid, ElementDataMatchesPlainDpAcrossMatrixStorageBoundary) {
  const Topology topologies[] = {Topology::kDirectedPath, Topology::kDirectedCycle,
                                 Topology::kUndirectedPath, Topology::kUndirectedCycle};
  Rng rng(211);
  std::size_t checked = 0;
  for (const std::size_t beta : {7u, 8u, 9u}) {
    for (std::size_t trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE("beta " + std::to_string(beta) + " trial " + std::to_string(trial));
      const PairwiseProblem p = dense_random_problem(rng, beta, topologies[trial % 4]);
      const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
      for (int k = 0; k < 12; ++k) {
        const Word w = random_word(rng, p.num_inputs(), 1 + rng.next_below(12));
        const MonoidElement& e = monoid.element(monoid.of_word(w));
        expect_matrix_is(e.fwd, dp_reach(p, w, false));
        expect_matrix_is(e.rev, dp_reach(p, reversed(w), false));
        expect_matrix_is(e.anchored, dp_reach(p, w, true));
        expect_vector_is(e.pvec, dp_prefix(p, w));
        expect_vector_is(e.pvec_rev, dp_prefix(p, reversed(w)));
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3u * 8u * 12u);
}

TEST(Monoid, ReversalMapIsCorrectAndInvolutive) {
  const PairwiseProblem p = automata_fixture();
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  for (std::size_t e = 0; e < monoid.size(); ++e) {
    const std::size_t r = monoid.reversed_index(e);
    EXPECT_EQ(monoid.reversed_index(r), e);
    EXPECT_EQ(monoid.of_word(reversed(monoid.witness(e))), r);
  }
}

// Lemma 12: Type(w sigma) is a function of Type(w) and sigma — our
// refinement: equal monoid elements stay equal under extension.
TEST(Types, ExtensionWellDefined) {
  const PairwiseProblem p = automata_fixture();
  const TransitionSystem ts = TransitionSystem::build(p);
  const Monoid monoid = Monoid::enumerate(ts);
  Rng rng(35);
  for (int trial = 0; trial < 30; ++trial) {
    const Word w1 = random_word(rng, p.num_inputs(), 2 + rng.next_below(8));
    const std::size_t e = monoid.of_word(w1);
    // Find another word with the same element by re-walking the witness.
    const Word w2 = monoid.witness(e);
    for (Label sigma = 0; sigma < p.num_inputs(); ++sigma) {
      EXPECT_EQ(monoid.of_word(concat(w1, {sigma})), monoid.of_word(concat(w2, {sigma})));
    }
  }
}

// Ground truth for Section 4.1: extendibility of boundary labelings is
// exactly the matrix condition in type_of/extendible.
TEST(Types, ExtendibilityMatchesBruteForce) {
  const PairwiseProblem p = automata_fixture();
  const TransitionSystem ts = TransitionSystem::build(p);
  Rng rng(36);
  for (int trial = 0; trial < 10; ++trial) {
    const Word w = random_word(rng, p.num_inputs(), 4 + rng.next_below(2));
    const std::size_t beta = p.num_outputs();
    for (Label a0 = 0; a0 < beta; ++a0) {
      for (Label a1 = 0; a1 < beta; ++a1) {
        for (Label b0 = 0; b0 < beta; ++b0) {
          // b1 does not influence extendibility; test one value.
          const bool fast = extendible(ts, w, {a0, a1, b0, 0});
          // Brute force over middle labelings.
          bool expect = false;
          const std::size_t mid = w.size() - 4 + 2;  // positions 2..k-3 free
          (void)mid;
          Word z(w.size(), 0);
          z[0] = a0;
          z[1] = a1;
          z[w.size() - 2] = b0;
          // Enumerate free positions 2..k-3.
          const std::size_t free_count = w.size() - 4;
          std::vector<std::size_t> idx(free_count);
          for (std::size_t i = 0; i < free_count; ++i) idx[i] = 2 + i;
          Word assignment(free_count, 0);
          while (!expect) {
            for (std::size_t i = 0; i < free_count; ++i) z[idx[i]] = assignment[i];
            bool ok = true;
            for (std::size_t v = 1; v + 1 < w.size() && ok; ++v) {
              ok = p.node_ok(w[v], z[v]) && p.edge_ok(z[v - 1], z[v]);
            }
            expect = ok;
            if (free_count == 0) break;
            std::size_t i = free_count;
            bool done = false;
            while (i > 0) {
              --i;
              if (++assignment[i] < beta) break;
              assignment[i] = 0;
              if (i == 0) done = true;
            }
            if (done) break;
          }
          ASSERT_EQ(fast, expect)
              << word_to_string(p.inputs(), w) << " a0=" << a0 << " a1=" << a1
              << " b0=" << b0;
        }
      }
    }
  }
}

// Lemma 14: the pump decomposition preserves the monoid element for every
// exponent, and Lemma 10/11's consequence holds: valid labelings survive
// pumping (checked via solvability of pumped cycles).
TEST(Pumping, DecompositionPreservesElement) {
  const PairwiseProblem p = automata_fixture();
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  Rng rng(37);
  int found = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const Word w = random_word(rng, p.num_inputs(),
                               monoid.size() + 5 + rng.next_below(5));
    const auto d = pump_decomposition(monoid, w);
    ASSERT_TRUE(d.has_value()) << "long words must pump";
    ++found;
    EXPECT_GE(d->y.size(), 1u);
    EXPECT_EQ(d->pumped(1), w);
    for (std::size_t i : {0u, 2u, 3u, 7u}) {
      EXPECT_EQ(monoid.of_word(d->pumped(i)), monoid.of_word(w)) << "i=" << i;
    }
  }
  EXPECT_EQ(found, 50);
}

TEST(Pumping, PumpToLengthReachesTarget) {
  const PairwiseProblem p = automata_fixture();
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  Rng rng(38);
  const Word w = random_word(rng, p.num_inputs(), monoid.size() + 6);
  const auto pumped = pump_to_length(monoid, w, 500);
  ASSERT_TRUE(pumped.has_value());
  EXPECT_GE(pumped->size(), 500u);
  EXPECT_EQ(monoid.of_word(*pumped), monoid.of_word(w));
}

TEST(Pumping, PowerPumpFindsCycle) {
  const PairwiseProblem p = automata_fixture();
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  Rng rng(39);
  for (int trial = 0; trial < 10; ++trial) {
    const Word w = random_word(rng, p.num_inputs(), 1 + rng.next_below(4));
    const PowerPump pump = power_pump(monoid, w);
    EXPECT_GE(pump.b, 1u);
    EXPECT_EQ(monoid.of_word(repeated(w, pump.a)),
              monoid.of_word(repeated(w, pump.a + pump.b)));
  }
}

TEST(Solvability, CatalogVerdicts) {
  struct Case {
    PairwiseProblem problem;
    bool solvable;
  };
  const Case cases[] = {
      {catalog::coloring(3), true},
      {catalog::two_coloring(), false},                           // odd cycles
      {catalog::two_coloring(Topology::kDirectedPath), true},
      {catalog::agreement(), true},
      {catalog::agreement(Topology::kDirectedPath), true},
      {catalog::empty_problem(), false},
      {catalog::prefix_parity(Topology::kDirectedCycle), false},  // odd parity
      {catalog::prefix_parity(Topology::kDirectedPath), true},
      {catalog::maximal_independent_set(), true},
  };
  for (const Case& c : cases) {
    const Monoid monoid = Monoid::enumerate(TransitionSystem::build(c.problem));
    const auto report = check_solvability(monoid, c.problem.topology());
    EXPECT_EQ(report.solvable, c.solvable) << c.problem.name();
    if (!report.solvable) {
      ASSERT_TRUE(report.counterexample.has_value());
      // The counterexample really has no labeling.
      EXPECT_FALSE(solve_by_dp(c.problem, *report.counterexample).has_value())
          << c.problem.name() << ": "
          << word_to_string(c.problem.inputs(), *report.counterexample);
    }
  }
}

TEST(Solvability, TwoColoringCounterexampleIsOddCycle) {
  const PairwiseProblem p = catalog::two_coloring();
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  const auto report = check_solvability(monoid, p.topology());
  ASSERT_FALSE(report.solvable);
  EXPECT_EQ(report.counterexample->size() % 2, 1u);
  EXPECT_GE(report.counterexample->size(), 3u);
}

}  // namespace
}  // namespace lclpath
