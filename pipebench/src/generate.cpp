#include "generate.hpp"

#include <unordered_set>

#include "automata/monoid.hpp"
#include "lcl/serialize.hpp"

namespace pipebench {

using lclpath::ComplexityClass;
using lclpath::PairwiseProblem;
using lclpath::Topology;

namespace {

constexpr Topology kPath = Topology::kDirectedPath;
constexpr Topology kCycle = Topology::kDirectedCycle;

// The decide_mix strata. Dense random tables keep most monoids small (the
// median problem is a ~0.1 ms classify); the 3x3 cycle and 4-input path
// families supply the decider-heavy tail (means of 0.8 and 4.6 ms, none
// above 100 ms in 32000 draws each). Dense 3x4 path and 2x4 cycle tables
// were left out, as were sparser 3x4 and 2x4 path tables: they produce
// rare problems whose factorized linear-gap search runs for 0.3-40 s at
// any monoid or domain size (17 of 64000 dense draws above 100 ms, one at
// 40 s), and one of those in a pass decides the whole run's throughput.
const std::vector<Stratum>& mix_strata() {
  static const std::vector<Stratum> strata = {
      {1, 3, 6, 5, kPath},  {1, 5, 5, 4, kCycle}, {2, 2, 6, 6, kPath},  {2, 3, 6, 6, kPath},
      {2, 3, 6, 6, kCycle}, {3, 3, 6, 6, kCycle}, {2, 5, 6, 6, kCycle}, {4, 3, 6, 6, kPath},
  };
  return strata;
}

// store_serve's corpus: cheap problems, so classifying 10^4 of them (about
// 6800 distinct records after deduplication) takes about a second.
const std::vector<Stratum>& corpus_strata() {
  static const std::vector<Stratum> strata = {
      {1, 3, 6, 5, kPath}, {1, 5, 5, 4, kCycle}, {2, 2, 6, 6, kPath},
      {2, 3, 6, 6, kCycle}, {1, 4, 5, 5, kPath},
  };
  return strata;
}

const char* topology_tag(Topology topology) {
  return topology == kPath ? "path" : "cycle";
}

std::string stratum_name(const char* prefix, std::uint64_t seed, std::size_t k,
                         const Stratum& s) {
  return std::string(prefix) + "-s" + std::to_string(seed) + "-" + std::to_string(k) + "-a" +
         std::to_string(s.inputs) + "b" + std::to_string(s.outputs) + "-" +
         topology_tag(s.topology);
}

}  // namespace

lclpath::Rng seeded_rng(std::uint64_t seed, std::uint64_t purpose) {
  lclpath::Rng mixer(seed * 0x9E3779B97F4A7C15ull + purpose);
  return lclpath::Rng(mixer.next_u64());
}

PairwiseProblem random_problem(lclpath::Rng& rng, const Stratum& s, std::string name) {
  lclpath::Alphabet inputs;
  lclpath::Alphabet outputs;
  for (std::size_t i = 0; i < s.inputs; ++i) inputs.add("i" + std::to_string(i));
  for (std::size_t o = 0; o < s.outputs; ++o) outputs.add("o" + std::to_string(o));
  PairwiseProblem problem(std::move(name), inputs, outputs, s.topology);
  for (lclpath::Label i = 0; i < s.inputs; ++i) {
    for (lclpath::Label o = 0; o < s.outputs; ++o) {
      if (rng.next_bool(s.node_eighths, 8)) problem.allow_node(i, o);
    }
  }
  for (lclpath::Label a = 0; a < s.outputs; ++a) {
    for (lclpath::Label b = 0; b < s.outputs; ++b) {
      if (rng.next_bool(s.edge_eighths, 8)) problem.allow_edge(a, b);
    }
  }
  return problem;
}

std::vector<GeneratedProblem> decide_mix_inputs(std::uint64_t seed, std::size_t random_count) {
  std::vector<GeneratedProblem> out;
  for (const lclpath::CatalogEntry& entry : lclpath::catalog::validation_catalog()) {
    out.push_back({lclpath::serialize(entry.problem), entry.expected});
  }
  lclpath::Rng rng = seeded_rng(seed, 1);
  const std::vector<Stratum>& strata = mix_strata();
  for (std::size_t k = 0; k < random_count;) {
    const Stratum& stratum = strata[k % strata.size()];
    const PairwiseProblem problem =
        random_problem(rng, stratum, stratum_name("mix", seed, k, stratum));
    try {
      lclpath::Monoid::enumerate(lclpath::TransitionSystem::build(problem), kMixMaxMonoid);
    } catch (const lclpath::MonoidBudgetError&) {
      continue;  // redraw from the same stratum
    }
    out.push_back({lclpath::serialize(problem), std::nullopt});
    ++k;
  }
  return out;
}

std::vector<GeneratedProblem> synth_inputs() {
  using namespace lclpath::catalog;
  std::vector<GeneratedProblem> out;
  const auto add = [&out](const PairwiseProblem& problem, ComplexityClass expected) {
    out.push_back({lclpath::serialize(problem), expected});
  };
  // Undirected cycles have no Theta(n) catalog problem (2-coloring is
  // unsolvable there), so they contribute two classes.
  for (const Topology topology : {kCycle, kPath, Topology::kUndirectedCycle,
                                  Topology::kUndirectedPath}) {
    add(constant_output(topology), ComplexityClass::kConstant);
    add(coloring(3, topology), ComplexityClass::kLogStar);
    if (topology == kCycle) add(agreement(kCycle), ComplexityClass::kLinear);
    if (!lclpath::is_cycle(topology)) add(two_coloring(topology), ComplexityClass::kLinear);
  }
  return out;
}

StoreInputs store_inputs(std::uint64_t seed, std::size_t corpus_count,
                         std::size_t novel_count) {
  StoreInputs out;
  lclpath::Rng rng = seeded_rng(seed, 4);
  std::unordered_set<std::string> keys;
  const std::vector<Stratum>& strata = corpus_strata();
  for (std::size_t k = 0; k < corpus_count; ++k) {
    const Stratum& stratum = strata[k % strata.size()];
    const PairwiseProblem problem =
        random_problem(rng, stratum, stratum_name("corpus", seed, k, stratum));
    keys.insert(lclpath::canonical_key(problem));
    out.corpus.push_back(lclpath::serialize(problem));
  }
  const Stratum novel_stratum{2, 4, 6, 6, kCycle};
  for (std::size_t k = 0; out.novel.size() < novel_count; ++k) {
    const PairwiseProblem problem =
        random_problem(rng, novel_stratum, stratum_name("novel", seed, k, novel_stratum));
    if (!keys.insert(lclpath::canonical_key(problem)).second) continue;
    out.novel.push_back(lclpath::serialize(problem));
  }
  return out;
}

std::vector<std::size_t> seeded_order(std::uint64_t seed, std::uint64_t purpose,
                                      std::size_t n) {
  lclpath::Rng rng = seeded_rng(seed, purpose);
  return rng.permutation(n);
}

}  // namespace pipebench
