// The hardness constructions routed through the batch classification
// engine (hardness/study.hpp): lift workload classification, in-batch
// dedup of renamed lifts, cross-call Batch/Monoid cache reuse, and the
// Theorem 5 budget-cap observable. Runs its batches on several worker
// threads — the suite is part of CI's TSan job, where the shared caches
// and the shared Monoid instances are the interesting surface.
#include <gtest/gtest.h>

#include <vector>

#include "hardness/pi_problem.hpp"
#include "hardness/study.hpp"
#include "lba/machines.hpp"
#include "lcl/catalog.hpp"

namespace lclpath::hardness {
namespace {

TEST(HardnessBatch, LiftWorkloadClassifies) {
  const std::vector<PairwiseProblem> problems = lift_workload();
  ASSERT_GE(problems.size(), 5u);

  StudyOptions options;
  options.num_threads = 4;
  const StudyResult result = classify_hardness(problems, options);

  ASSERT_EQ(result.entries.size(), problems.size());
  EXPECT_EQ(result.summary.total, problems.size());
  EXPECT_EQ(result.summary.ok, problems.size());
  EXPECT_EQ(result.summary.failed, 0u);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_TRUE(result.entries[i].ok()) << problems[i].name() << ": "
                                        << result.entries[i].error();
  }
  // The class census covers the constant and linear regimes (the lift
  // constructions preserve the source classes) and sums to the batch.
  std::size_t census = 0;
  for (const std::size_t count : result.summary.by_class) census += count;
  EXPECT_EQ(census, result.summary.ok);
  EXPECT_EQ(result.summary.by_class[static_cast<std::size_t>(
                ComplexityClass::kUnsolvable)],
            0u);

  // The workload carries a renamed copy of a lifted problem: canonical
  // keys ignore names, so the batch engine classifies it once.
  EXPECT_GE(result.summary.deduplicated, 1u);
}

TEST(HardnessBatch, SharedCachesServeRepeatStudies) {
  const std::vector<PairwiseProblem> problems = lift_workload();
  MonoidCache monoids;
  BatchCache batch;
  StudyOptions options;
  options.num_threads = 4;
  options.monoid_cache = &monoids;
  options.batch_cache = &batch;

  const StudyResult cold = classify_hardness(problems, options);
  EXPECT_EQ(cold.summary.ok, problems.size());
  EXPECT_EQ(cold.summary.from_cache, 0u);
  // Every representative problem built (or reused) a monoid through the
  // shared cache; nothing was there to hit on the very first pass.
  EXPECT_GT(cold.monoid_misses, 0u);

  const StudyResult warm = classify_hardness(problems, options);
  EXPECT_EQ(warm.summary.ok, problems.size());
  // Second pass: every entry is served from the batch cache without
  // touching the monoid layer at all.
  EXPECT_EQ(warm.summary.from_cache, problems.size());
  EXPECT_EQ(warm.monoid_hits, 0u);
  EXPECT_EQ(warm.monoid_misses, 0u);
}

TEST(HardnessBatch, MonoidCacheSharesInstancesAcrossCalls) {
  // Same problems, fresh BatchCache each call: the second call must
  // re-classify but only hit the MonoidCache, reusing the monoids the
  // first call built instead of adding any.
  const std::vector<PairwiseProblem> problems = lift_workload();
  MonoidCache monoids;
  StudyOptions options;
  options.num_threads = 4;
  options.monoid_cache = &monoids;

  const StudyResult first = classify_hardness(problems, options);
  const std::size_t monoids_after_first = monoids.size();
  const StudyResult second = classify_hardness(problems, options);
  ASSERT_EQ(first.summary.ok, problems.size());
  ASSERT_EQ(second.summary.ok, problems.size());
  EXPECT_GT(monoids_after_first, 0u);
  EXPECT_EQ(monoids.size(), monoids_after_first);
  EXPECT_EQ(second.monoid_misses, 0u);
  EXPECT_GT(second.monoid_hits, 0u);
}

TEST(HardnessBatch, PiPairwiseBudgetCapIsRecordedPerEntry) {
  // Theorem 5's observable: classifying Pi_MB's pairwise product hits the
  // monoid budget — recorded in that entry, while the rest of the batch
  // classifies normally.
  std::vector<PairwiseProblem> problems;
  problems.push_back(catalog::coloring(3, Topology::kDirectedPath));
  problems.push_back(pi_pairwise(lba::immediate_halt(), 2));

  StudyOptions options;
  options.num_threads = 2;
  options.max_monoid = 60;  // enough for the coloring, hopeless for Pi_MB
  const StudyResult result = classify_hardness(problems, options);

  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_TRUE(result.entries[0].ok()) << result.entries[0].error();
  ASSERT_FALSE(result.entries[1].ok());
  EXPECT_NE(result.entries[1].error().find("budget"), std::string::npos)
      << result.entries[1].error();
  EXPECT_EQ(result.summary.ok, 1u);
  EXPECT_EQ(result.summary.failed, 1u);
}

TEST(HardnessBatch, PiPairwiseStructure) {
  const lba::Machine machine = lba::immediate_halt();
  const std::size_t b = 2;
  const PairwiseProblem product = pi_pairwise(machine, b);
  const PiProblem pi(machine, b);
  const PiLabels& labels = pi.labels();

  EXPECT_EQ(product.topology(), Topology::kDirectedPath);
  EXPECT_EQ(product.num_inputs(), labels.num_inputs());
  EXPECT_EQ(product.num_outputs(), labels.num_inputs() * labels.num_outputs());
  EXPECT_TRUE(product.has_first_constraint());

  // Lemma 2's product invariants, spot-checked: a pairwise output is only
  // usable where its input component matches the node input, and the
  // last-node mask rejects exactly the specific-error outputs.
  const std::size_t num_out = labels.num_outputs();
  for (Label i = 0; i < labels.num_inputs(); ++i) {
    for (Label j = 0; j < labels.num_inputs(); ++j) {
      if (i == j) continue;
      for (Label o = 0; o < num_out; o += 7) {
        EXPECT_FALSE(product.node_ok(i, static_cast<Label>(j * num_out + o)));
      }
    }
  }
  for (Label o = 0; o < num_out; ++o) {
    const bool allowed = product.last_ok(o);  // input component 0
    EXPECT_EQ(allowed, !labels.decode_output(o).is_specific_error());
  }
}

}  // namespace
}  // namespace lclpath::hardness
