// Differential pin for the single-pass monoid enumeration: an independent
// reference implementation of the pre-rewrite two-pass algorithm (BFS with
// per-edge materialized elements, then a second full pass re-multiplying
// every edge for the extend table and re-materializing every element for
// the reversal map) must agree with Monoid::enumerate on element count,
// element data, extend table, reversed_index, and witnesses — over the
// full validation catalog plus the lifted monoid-90 family. The layer
// cycle is checked against a direct BFS over the reference extend table.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "automata/monoid.hpp"
#include "hardness/undirected.hpp"
#include "lcl/catalog.hpp"
#include "lcl/serialize.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

struct RefElement {
  MonoidElement data;
  Word witness;
};

struct RefMonoid {
  std::vector<RefElement> elements;
  std::vector<std::size_t> extend;  // elements x inputs
  std::vector<std::size_t> reversed;
  std::vector<std::size_t> seeds;  // [sigma] -> element of the word sigma
};

using RefHashBuckets = std::unordered_map<std::size_t, std::vector<std::size_t>>;

std::size_t ref_lookup(const RefMonoid& ref, const RefHashBuckets& by_hash,
                       const MonoidElement& e) {
  auto it = by_hash.find(e.data_hash());
  if (it == by_hash.end()) return ref.elements.size();
  for (std::size_t index : it->second) {
    if (ref.elements[index].data.same_data(e)) return index;
  }
  return ref.elements.size();
}

/// The retired two-pass enumeration, kept verbatim as the oracle.
RefMonoid reference_enumerate(const TransitionSystem& ts) {
  RefMonoid ref;
  RefHashBuckets by_hash;
  const std::size_t num_inputs = ts.num_inputs();

  auto intern = [&](MonoidElement&& e, Word witness) -> std::pair<std::size_t, bool> {
    const std::size_t found = ref_lookup(ref, by_hash, e);
    if (found < ref.elements.size()) return {found, false};
    const std::size_t index = ref.elements.size();
    by_hash[e.data_hash()].push_back(index);
    ref.elements.push_back({std::move(e), std::move(witness)});
    return {index, true};
  };

  std::deque<std::size_t> queue;
  for (Label sigma = 0; sigma < num_inputs; ++sigma) {
    MonoidElement e;
    e.fwd = ts.step(sigma);
    e.rev = ts.step(sigma);
    e.anchored = ts.anchored(sigma);
    e.anchored_rev = ts.anchored(sigma);
    e.pvec = ts.start_first(sigma);
    e.pvec_rev = ts.start_first(sigma);
    e.first = sigma;
    e.last = sigma;
    auto [index, fresh] = intern(std::move(e), {sigma});
    ref.seeds.push_back(index);
    if (fresh) queue.push_back(index);
  }

  while (!queue.empty()) {
    const std::size_t index = queue.front();
    queue.pop_front();
    for (Label sigma = 0; sigma < num_inputs; ++sigma) {
      const MonoidElement src = ref.elements[index].data;  // deep copy on purpose
      const Word src_witness = ref.elements[index].witness;
      MonoidElement e;
      e.fwd = src.fwd * ts.step(sigma);
      e.rev = ts.step(sigma) * src.rev;
      e.anchored = src.anchored * ts.step(sigma);
      e.anchored_rev = ts.anchored(sigma) * src.rev;
      e.pvec = src.pvec.multiplied(ts.step(sigma));
      e.pvec_rev = ts.start_first(sigma).multiplied(src.rev);
      e.first = src.first;
      e.last = sigma;
      Word witness = src_witness;
      witness.push_back(sigma);
      auto [new_index, fresh] = intern(std::move(e), std::move(witness));
      if (fresh) queue.push_back(new_index);
    }
  }

  // Second pass: re-multiply every edge for the extend table.
  ref.extend.assign(ref.elements.size() * num_inputs, 0);
  for (std::size_t index = 0; index < ref.elements.size(); ++index) {
    for (Label sigma = 0; sigma < num_inputs; ++sigma) {
      const MonoidElement& src = ref.elements[index].data;
      MonoidElement e;
      e.fwd = src.fwd * ts.step(sigma);
      e.rev = ts.step(sigma) * src.rev;
      e.anchored = src.anchored * ts.step(sigma);
      e.anchored_rev = ts.anchored(sigma) * src.rev;
      e.pvec = src.pvec.multiplied(ts.step(sigma));
      e.pvec_rev = ts.start_first(sigma).multiplied(src.rev);
      e.first = src.first;
      e.last = sigma;
      const std::size_t found = ref_lookup(ref, by_hash, e);
      if (found >= ref.elements.size()) {
        throw std::logic_error("reference extend table hit an unknown element");
      }
      ref.extend[index * num_inputs + sigma] = found;
    }
  }
  // Re-materialize every element for the reversal map.
  ref.reversed.assign(ref.elements.size(), 0);
  for (std::size_t index = 0; index < ref.elements.size(); ++index) {
    const MonoidElement& e = ref.elements[index].data;
    MonoidElement r;
    r.fwd = e.rev;
    r.rev = e.fwd;
    r.anchored = e.anchored_rev;
    r.anchored_rev = e.anchored;
    r.pvec = e.pvec_rev;
    r.pvec_rev = e.pvec;
    r.first = e.last;
    r.last = e.first;
    const std::size_t found = ref_lookup(ref, by_hash, r);
    if (found >= ref.elements.size()) {
      throw std::logic_error("reference reversal map hit an unknown element");
    }
    ref.reversed[index] = found;
  }
  return ref;
}

std::vector<PairwiseProblem> differential_workload() {
  std::vector<PairwiseProblem> problems;
  for (const auto& entry : catalog::validation_catalog()) {
    problems.push_back(entry.problem);
  }
  // The lifted monoid-90 family (Section 3.7 lifts; coloring(3, path) is
  // the 90-element skeleton the lifted-regression suite pins).
  problems.push_back(
      hardness::lift_to_undirected(catalog::constant_output(Topology::kDirectedPath)));
  problems.push_back(
      hardness::lift_to_undirected(catalog::two_coloring(Topology::kDirectedPath)));
  problems.push_back(
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath)));
  return problems;
}

TEST(MonoidDifferential, SinglePassMatchesTwoPassReference) {
  for (const PairwiseProblem& problem : differential_workload()) {
    SCOPED_TRACE(problem.name());
    const TransitionSystem ts = TransitionSystem::build(problem);
    const Monoid monoid = Monoid::enumerate(ts);
    const RefMonoid ref = reference_enumerate(ts);

    ASSERT_EQ(monoid.size(), ref.elements.size());
    const std::size_t num_inputs = ts.num_inputs();
    for (std::size_t e = 0; e < monoid.size(); ++e) {
      // Both enumerations BFS in the same order, so indices correspond.
      ASSERT_TRUE(monoid.element(e).same_data(ref.elements[e].data)) << "element " << e;
      EXPECT_EQ(monoid.witness(e), ref.elements[e].witness) << "element " << e;
      EXPECT_EQ(monoid.reversed_index(e), ref.reversed[e]) << "element " << e;
      for (Label sigma = 0; sigma < num_inputs; ++sigma) {
        ASSERT_EQ(monoid.extend(e, sigma), ref.extend[e * num_inputs + sigma])
            << "element " << e << " sigma " << static_cast<int>(sigma);
      }
    }
  }
}

/// The layers S_1 .. S_max_length by a direct BFS over the reference
/// extend table: layers[L - 1] = sorted element indices of the words of
/// exactly L symbols.
std::vector<std::vector<std::size_t>> reference_layers(const RefMonoid& ref,
                                                       std::size_t max_length) {
  const std::size_t num_inputs = ref.seeds.size();
  std::vector<std::size_t> layer = ref.seeds;
  std::sort(layer.begin(), layer.end());
  layer.erase(std::unique(layer.begin(), layer.end()), layer.end());
  std::vector<std::vector<std::size_t>> layers = {layer};
  while (layers.size() < max_length) {
    std::vector<char> seen(ref.elements.size(), 0);
    std::vector<std::size_t> next;
    for (std::size_t e : layers.back()) {
      for (Label sigma = 0; sigma < num_inputs; ++sigma) {
        const std::size_t x = ref.extend[e * num_inputs + sigma];
        if (!seen[x]) {
          seen[x] = 1;
          next.push_back(x);
        }
      }
    }
    std::sort(next.begin(), next.end());
    layers.push_back(std::move(next));
  }
  return layers;
}

std::vector<std::size_t> as_vector(std::span<const std::size_t> layer) {
  return {layer.begin(), layer.end()};
}

std::vector<PairwiseProblem> layer_workload() {
  std::vector<PairwiseProblem> problems = differential_workload();
  problems.push_back(testing::automata_fixture());
  return problems;
}

TEST(MonoidDifferential, LayerCycleMatchesBfsOracle) {
  for (const PairwiseProblem& problem : layer_workload()) {
    SCOPED_TRACE(problem.name());
    const TransitionSystem ts = TransitionSystem::build(problem);
    const LayerCycle cycle = Monoid::enumerate(ts).layer_cycle();
    const auto layers = reference_layers(reference_enumerate(ts), 60);
    // Lengths past the stored layers go through the modular fold.
    for (std::size_t length : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 40u, 60u}) {
      EXPECT_EQ(as_vector(cycle.at(length)), layers[length - 1]) << "length " << length;
    }
  }
}

TEST(MonoidDifferential, LayerCycleIsTheFirstRepeatAndStabilizes) {
  for (const PairwiseProblem& problem : layer_workload()) {
    SCOPED_TRACE(problem.name());
    const TransitionSystem ts = TransitionSystem::build(problem);
    const LayerCycle cycle = Monoid::enumerate(ts).layer_cycle();
    const std::size_t stored = cycle.preperiod + cycle.period;
    ASSERT_GE(cycle.period, 1u);
    const auto layers = reference_layers(reference_enumerate(ts), stored + cycle.period + 2);
    // The stored layers are pairwise distinct and the next one repeats
    // S_{preperiod + 1}: the walk stopped at the first repeat.
    for (std::size_t i = 0; i < stored; ++i) {
      for (std::size_t j = i + 1; j < stored; ++j) EXPECT_NE(layers[i], layers[j]);
    }
    EXPECT_EQ(layers[stored], layers[cycle.preperiod]);
    for (std::size_t length = 1; length <= layers.size(); ++length) {
      EXPECT_EQ(as_vector(cycle.at(length)), layers[length - 1]) << "length " << length;
    }
    std::size_t expected = std::numeric_limits<std::size_t>::max();
    for (std::size_t k = 1; k <= stored; ++k) {
      if (layers[k - 1] == layers[k + 1]) {
        expected = k;
        break;
      }
    }
    EXPECT_EQ(cycle.stabilization(), expected);
  }
}

TEST(MonoidDifferential, OfSymbolMatchesSeedElements) {
  for (const PairwiseProblem& problem : differential_workload()) {
    SCOPED_TRACE(problem.name());
    const TransitionSystem ts = TransitionSystem::build(problem);
    const Monoid monoid = Monoid::enumerate(ts);
    for (Label sigma = 0; sigma < ts.num_inputs(); ++sigma) {
      const std::size_t e = monoid.of_symbol(sigma);
      EXPECT_EQ(monoid.of_word(Word{sigma}), e);
      EXPECT_EQ(monoid.element(e).fwd, ts.step(sigma));
      EXPECT_EQ(monoid.witness(e).size(), 1u);
    }
  }
}

TEST(TransitionCanonicalKey, FingerprintsSkeletonNotNames) {
  const TransitionSystem a = TransitionSystem::build(catalog::coloring(3));
  PairwiseProblem renamed = catalog::coloring(3);
  renamed.set_name("renamed");
  const TransitionSystem b = TransitionSystem::build(renamed);
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  // The member hash is exactly the free FNV-1a of the key (the form
  // callers use when they already hold the key string).
  EXPECT_EQ(a.canonical_hash(), canonical_hash(a.canonical_key()));

  // Constraints and topology both split the fingerprint: deciders read the
  // topology through a shared monoid's transition system.
  const TransitionSystem more_colors = TransitionSystem::build(catalog::coloring(4));
  EXPECT_NE(a.canonical_key(), more_colors.canonical_key());
  const TransitionSystem path =
      TransitionSystem::build(catalog::coloring(3, Topology::kDirectedPath));
  EXPECT_NE(a.canonical_key(), path.canonical_key());
}

TEST(MonoidDifferential, WitnessReconstructionIsShortest) {
  // Witnesses come from a BFS tree, so |witness(e)| is the BFS depth of e;
  // no shorter word can reach e (a shorter word's element would have been
  // interned earlier in BFS order with that length).
  const PairwiseProblem p =
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  EXPECT_EQ(monoid.size(), 90u);
  // depth[e] via BFS over the extend table.
  std::vector<std::size_t> depth(monoid.size(), 0);
  std::vector<char> seen(monoid.size(), 0);
  std::deque<std::size_t> queue;
  for (Label sigma = 0; sigma < monoid.transitions().num_inputs(); ++sigma) {
    const std::size_t e = monoid.of_symbol(sigma);
    if (!seen[e]) {
      seen[e] = 1;
      depth[e] = 1;
      queue.push_back(e);
    }
  }
  while (!queue.empty()) {
    const std::size_t e = queue.front();
    queue.pop_front();
    for (Label sigma = 0; sigma < monoid.transitions().num_inputs(); ++sigma) {
      const std::size_t x = monoid.extend(e, sigma);
      if (!seen[x]) {
        seen[x] = 1;
        depth[x] = depth[e] + 1;
        queue.push_back(x);
      }
    }
  }
  for (std::size_t e = 0; e < monoid.size(); ++e) {
    const Word w = monoid.witness(e);
    EXPECT_EQ(w.size(), depth[e]) << "element " << e;
    EXPECT_EQ(monoid.of_word(w), e) << "element " << e;
  }
}

}  // namespace
}  // namespace lclpath
