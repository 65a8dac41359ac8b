// One hash over everything the deciders certify, on a fixed problem set:
// the verdict, linear-gap feasibility, every (point, value) of the
// linear-gap certificate in for_each_point order, and the const-gap
// choice_per_element. A kernel or search rewrite that keeps the verdicts
// but moves a single certificate value (a different conflict, branch
// order, first-valid scan, signature or profile order) changes the digest.
//
// The constants were recorded before the decider kernels were rewritten
// onto inline one-word bit operations, flat const-gap tables and the
// folded glue/conflict sweep, and that rewrite left them unchanged.
//
// The problem set:
//  - the seeded directed workload of alloc_budget_test (400 problems with
//    monoids of at most 300 elements, then the directed catalog);
//  - the whole validation catalog (all four topologies);
//  - 27 draws of {2 inputs, 5 outputs, node and edge pairs allowed with
//    probability 6/8, directed cycle} from Rng(7), picked once because
//    their linear-gap searches branch at least 10 times (10-116 branch
//    frames each, counted in the first 2500 draws). Listed by draw
//    index, so the set never depends on timing.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "decide/classifier.hpp"
#include "directed_workload.hpp"

namespace lclpath {
namespace {

constexpr std::array<std::size_t, 27> kBranchingDraws = {
    48,   121,  134,  169,  194,  275,  312,  344,  518,  635,  654,  694,  749, 883,
    924,  1015, 1110, 1156, 1393, 1588, 1801, 1867, 1979, 1987, 2086, 2186, 2203};

std::vector<PairwiseProblem> branching_cycles() {
  std::vector<PairwiseProblem> problems;
  Rng rng(7);
  Alphabet inputs;
  Alphabet outputs;
  for (int i = 0; i < 2; ++i) inputs.add(std::string("i").append(std::to_string(i)));
  for (int o = 0; o < 5; ++o) outputs.add(std::string("o").append(std::to_string(o)));
  std::size_t next = 0;
  for (std::size_t draw = 0; next < kBranchingDraws.size(); ++draw) {
    PairwiseProblem problem("branching", inputs, outputs, Topology::kDirectedCycle);
    for (Label i = 0; i < 2; ++i) {
      for (Label o = 0; o < 5; ++o) {
        if (rng.next_bool(6, 8)) problem.allow_node(i, o);
      }
    }
    for (Label a = 0; a < 5; ++a) {
      for (Label b = 0; b < 5; ++b) {
        if (rng.next_bool(6, 8)) problem.allow_edge(a, b);
      }
    }
    if (draw == kBranchingDraws[next]) {
      problems.push_back(std::move(problem));
      ++next;
    }
  }
  return problems;
}

std::size_t certificate_digest(const ClassifiedProblem& classified, std::size_t h) {
  h = hash_mix(h, static_cast<std::size_t>(classified.complexity()));
  const LinearGapCertificate& linear = classified.linear_certificate();
  h = hash_mix(h, linear.feasible ? 1 : 0);
  linear.for_each_point([&](const BlockPoint& point, const BlockValue& value) {
    h = hash_mix(h, static_cast<std::size_t>(point.kind));
    h = hash_mix(h, point.left);
    h = hash_mix(h, point.s0);
    h = hash_mix(h, point.s1);
    h = hash_mix(h, point.right);
    h = hash_mix(h, value.a);
    h = hash_mix(h, value.b);
  });
  const ConstGapCertificate& constant = classified.const_certificate();
  h = hash_mix(h, constant.feasible ? 1 : 0);
  h = hash_mix(h, constant.choice_per_element.size());
  for (const PeriodicChoice& choice : constant.choice_per_element) {
    h = hash_mix(hash_mix(h, choice.first), choice.last);
  }
  return h;
}

std::size_t digest_of(const std::vector<PairwiseProblem>& problems) {
  std::size_t h = hash_mix(0xD16E57, problems.size());
  for (const PairwiseProblem& problem : problems) {
    h = certificate_digest(classify(problem), h);
  }
  return h;
}

TEST(CertificateDigest, SeededDirectedWorkload) {
  const std::size_t digest = digest_of(testing::seeded_directed_workload());
  std::printf("seeded directed workload digest: 0x%zx\n", digest);
  EXPECT_EQ(digest, std::size_t{0x6185beb37fd80da7});
}

TEST(CertificateDigest, ValidationCatalog) {
  std::vector<PairwiseProblem> problems;
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    problems.push_back(entry.problem);
  }
  const std::size_t digest = digest_of(problems);
  std::printf("validation catalog digest: 0x%zx\n", digest);
  EXPECT_EQ(digest, std::size_t{0xd563a167bf4d2e5f});
}

TEST(CertificateDigest, BranchingCycleSearches) {
  const std::vector<PairwiseProblem> problems = branching_cycles();
  ASSERT_EQ(problems.size(), kBranchingDraws.size());
  const std::size_t digest = digest_of(problems);
  std::printf("branching cycle digest: 0x%zx\n", digest);
  EXPECT_EQ(digest, std::size_t{0x85c4d786a8fb59c4});
}

}  // namespace
}  // namespace lclpath
