// Deadline-aware classification: the cooperative cancellation runtime
// (core/cancel.hpp) end to end through classify_batch.
//
// The acceptance scenario: one pathological problem (the Lemma 3 binary
// normalization of 3-coloring on a directed path: beta' = 192, a monoid
// of 1575 elements built in ~0.1 s, then a linear-gap search that does
// not finish within 20 s in Release) rides in a batch with fast siblings
// under a per-problem deadline. The pathological slot must time out
// promptly with a structured kTimeout error, the siblings must classify
// bit-identically to a deadline-free run, and no cache may retain anything
// from the timed-out problem. The point-pair oracle under tests/ keeps its
// own checkpoints, pinned here by calling it directly with a budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "automata/monoid.hpp"
#include "core/cancel.hpp"
#include "decide/batch.hpp"
#include "decide/const_gap.hpp"
#include "hardness/study.hpp"
#include "hardness/undirected.hpp"
#include "lcl/catalog.hpp"
#include "lcl/normalize.hpp"
#include "lcl/serialize.hpp"
#include "linear_gap_oracle.hpp"

namespace lclpath {
namespace {

// Wall-clock bound for "timed out promptly". The strict 2x-deadline gate
// runs in Release CI (lclpath_cli deadline-suite); under sanitizers every
// clock inflates, so the unit test only pins the order of magnitude
// against the unbounded runtime.
constexpr auto kPromptBound = std::chrono::milliseconds(20000);

PairwiseProblem pathological_problem() {
  return normalize_binary(catalog::coloring(3, Topology::kDirectedPath)).problem;
}

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<PairwiseProblem> sibling_problems() {
  return {catalog::coloring(3),
          catalog::constant_output(),
          catalog::maximal_independent_set(),
          catalog::agreement(),
          catalog::prefix_parity(),
          catalog::coloring(3, Topology::kDirectedPath),
          catalog::two_coloring()};
}

TEST(ExecutionBudget, DeadlineTripsAndReportsReason) {
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(0));
  try {
    budget.check();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
}

TEST(ExecutionBudget, CancellationTripsEvenWithoutDeadline) {
  ExecutionBudget budget;
  budget.check();  // no limits: fine
  budget.cancel();
  try {
    budget.check();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
}

TEST(ExecutionBudget, MemoryCeilingTrips) {
  ExecutionBudget budget;
  budget.set_memory_limit(1024);
  budget.charge_memory(512);
  EXPECT_EQ(budget.memory_charged(), 512u);
  try {
    budget.charge_memory(1024);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kMemory);
  }
}

TEST(ExecutionBudget, ParentLimitsApplyThroughTheChain) {
  ExecutionBudget parent;
  parent.cancel();
  ExecutionBudget child;
  child.set_parent(&parent);
  EXPECT_THROW(child.check(), CancelledError);
}

TEST(ExecutionBudget, CheckpointEventuallyObservesTheDeadline) {
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(0));
  // The amortized checkpoint reads the clock every kCheckpointStride
  // ticks, so within two strides it must throw.
  EXPECT_THROW(
      {
        for (std::uint32_t i = 0; i < 2 * ExecutionBudget::kCheckpointStride; ++i) {
          budget.checkpoint();
        }
      },
      CancelledError);
}

// checkpoint(ticks) runs the real check exactly when the charged range
// [before, before + ticks) contains a multiple of the stride.
TEST(ExecutionBudget, ChargedTicksCheckWhenTheirRangeCrossesAStride) {
  constexpr std::uint32_t kStride = ExecutionBudget::kCheckpointStride;
  ExecutionBudget budget;
  budget.checkpoint(1);  // tick 0: checks, nothing tripped yet
  budget.cancel();
  EXPECT_NO_THROW(budget.checkpoint(kStride - 2));  // ticks [1, stride - 1)
  try {
    budget.checkpoint(2);  // ticks [stride - 1, stride + 1) hold the stride
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
}

TEST(ExecutionBudget, ChargeOfThreeStridesChecksFromAnyOffset) {
  constexpr std::uint32_t kStride = ExecutionBudget::kCheckpointStride;
  for (std::uint32_t offset : {0u, 1u, kStride / 2, kStride - 1, kStride, 2 * kStride + 7}) {
    ExecutionBudget budget;
    if (offset != 0) budget.checkpoint(offset);
    budget.cancel();
    EXPECT_THROW(budget.checkpoint(3 * kStride), CancelledError) << "offset " << offset;
  }
}

TEST(ExecutionBudget, NullBudgetHelpersAreNoOps) {
  budget_checkpoint(nullptr);
  budget_check(nullptr);
  budget_charge_memory(nullptr, 1 << 30);
}

// A classify() with an expired deadline throws CancelledError directly.
TEST(Deadline, ClassifyThrowsCancelledErrorOnDeadline) {
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(0));
  ClassifyOptions options;
  options.budget = &budget;
  try {
    classify(pathological_problem(), options);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
}

// A cancelled classify must leave the shared MonoidCache without the
// aborted problem's skeleton (a half-used monoid must not be published by
// a run that failed). The deadline is calibrated to a few monoid
// enumerations, so it trips in the decider, after the monoid was cached.
TEST(Deadline, TimedOutClassifyLeavesMonoidCacheClean) {
  const PairwiseProblem problem = pathological_problem();
  const auto enumerate_start = std::chrono::steady_clock::now();
  (void)Monoid::enumerate(TransitionSystem::build(problem));
  const std::int64_t enumerate_ms = elapsed_ms(enumerate_start);

  MonoidCache monoids;
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(std::max<std::int64_t>(50, 4 * enumerate_ms)));
  ClassifyOptions options;
  options.budget = &budget;
  options.monoid_cache = &monoids;
  EXPECT_THROW(classify(problem, options), CancelledError);
  EXPECT_EQ(monoids.size(), 0u);
}

// The const-gap decider's per-element loops each do dense matrix powers or
// O(|monoid|) vector products, so they must read the clock every
// iteration: on the Lemma 3 normalization of 2-coloring (monoid 1601,
// beta' = 160; the full decision takes ~13 s in Release) an amortized
// checkpoint, one clock read per 4096 ticks, lets a 100 ms deadline run
// for all 13 s.
TEST(Deadline, ConstGapDeciderStopsPromptlyOnWideOutputs) {
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(
      normalize_binary(catalog::two_coloring(Topology::kDirectedPath)).problem));
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)decide_const_gap(monoid, &budget), CancelledError);
  EXPECT_LT(elapsed_ms(start), 2000);
}

// Monoid::enumerate charges each BFS probe by its matrix words: on the
// Lemma 3 normalization of secret agreement (beta' = 1024) one probe takes
// ~0.3 ms in Release, so a single tick per probe would read the clock once
// per 4096 probes and let a 100 ms deadline run for seconds.
TEST(Deadline, MonoidEnumerationStopsPromptlyOnWideOutputs) {
  const TransitionSystem ts = TransitionSystem::build(
      normalize_binary(catalog::agreement(Topology::kDirectedPath)).problem);
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)Monoid::enumerate(ts, 500000, &budget), CancelledError);
  EXPECT_LT(elapsed_ms(start), 2000);
}

// The oracle's own loops are checkpointed too: on the undirected lift of
// 3-coloring (~1.8 * 10^5 points, quadratic work the oracle never
// finishes) a short deadline interrupts it promptly.
TEST(Deadline, PairwiseOracleHonorsItsBudget) {
  const PairwiseProblem lifted =
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(lifted));
  ExecutionBudget budget;
  budget.set_timeout(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)testing::decide_pairwise(monoid, &budget);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, kPromptBound);
}

// The acceptance scenario.
TEST(Deadline, PathologicalProblemTimesOutWithoutDisturbingSiblings) {
  std::vector<PairwiseProblem> problems = sibling_problems();
  const std::size_t pathological_at = 3;
  problems.insert(problems.begin() + pathological_at, pathological_problem());
  ASSERT_EQ(problems.size(), 8u);

  // Reference: the siblings classified with no deadline at all. Its wall
  // clock also calibrates the deadline — 100 ms in a Release build, but
  // sanitizer builds run ~10x slower and a fixed deadline would trip on
  // the legitimate siblings; the pathological problem runs far past any
  // such deadline on any build, so a scaled deadline still times it out.
  std::vector<PairwiseProblem> siblings = sibling_problems();
  const auto reference_start = std::chrono::steady_clock::now();
  const auto reference = classify_batch(siblings, BatchOptions{});
  const std::int64_t reference_ms = elapsed_ms(reference_start);
  for (const auto& entry : reference) ASSERT_TRUE(entry.ok()) << entry.error();

  BatchCache cache;
  BatchOptions options;
  options.problem_deadline_ms =
      std::max<std::uint64_t>(100, static_cast<std::uint64_t>(5 * reference_ms));
  options.cache = &cache;
  const auto start = std::chrono::steady_clock::now();
  const auto batch = classify_batch(problems, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 8u);

  // The pathological slot: structured timeout, promptly.
  EXPECT_FALSE(batch[pathological_at].ok());
  EXPECT_EQ(batch[pathological_at].error_kind(), BatchErrorKind::kTimeout);
  EXPECT_FALSE(batch[pathological_at].error().empty());
  EXPECT_LT(elapsed, kPromptBound);

  // Every sibling: classified, bit-identical to the deadline-free run.
  for (std::size_t i = 0, r = 0; i < batch.size(); ++i) {
    if (i == pathological_at) continue;
    ASSERT_TRUE(batch[i].ok()) << batch[i].error();
    EXPECT_EQ(batch[i].classified().complexity(), reference[r].classified().complexity());
    EXPECT_EQ(batch[i].classified().summary(), reference[r].classified().summary());
    const Verdict direct = classify(siblings[r]).verdict();
    EXPECT_EQ(batch[i].classified().complexity(), direct.complexity());
    EXPECT_EQ(batch[i].classified().problem(), direct.problem());
    EXPECT_EQ(batch[i].classified().summary(), direct.summary());
    ++r;
  }

  // The cache holds the siblings and nothing for the timed-out problem.
  EXPECT_EQ(cache.size(), siblings.size());
  const std::string key =
      canonical_key(problems[pathological_at]) +
      cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
  EXPECT_EQ(cache.find(canonical_hash(key), key), nullptr);

  // The summary reports the timeout as a first-class observable.
  const BatchSummary summary = summarize_batch(batch);
  EXPECT_EQ(summary.total, 8u);
  EXPECT_EQ(summary.ok, 7u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.by_error[static_cast<std::size_t>(BatchErrorKind::kTimeout)], 1u);
}

// The batch-level deadline is the cooperative watchdog: once a slow head
// problem exhausts it on the only worker thread, every task still queued
// behind it fails fast at its entry check — deterministic partial
// results, every slot populated, all failures structured as kTimeout.
TEST(Deadline, ExhaustedBatchDeadlineFailsQueuedEntriesAsTimeouts) {
  std::vector<PairwiseProblem> problems = sibling_problems();
  problems.insert(problems.begin(), pathological_problem());
  BatchOptions options;
  options.num_threads = 1;
  options.batch_deadline_ms = 50;
  const auto batch = classify_batch(problems, options);
  ASSERT_EQ(batch.size(), problems.size());
  for (const auto& entry : batch) {
    ASSERT_NE(entry.outcome, nullptr);
    EXPECT_FALSE(entry.ok());
    EXPECT_EQ(entry.error_kind(), BatchErrorKind::kTimeout);
  }
  const BatchSummary summary = summarize_batch(batch);
  EXPECT_EQ(summary.by_error[static_cast<std::size_t>(BatchErrorKind::kTimeout)],
            problems.size());
}

// An explicit cancel() on the caller's budget surfaces as kCancelled.
TEST(Deadline, CallerCancellationSurfacesAsCancelledEntries) {
  ExecutionBudget budget;
  budget.cancel();
  std::vector<PairwiseProblem> problems = sibling_problems();
  BatchOptions options;
  options.classify.budget = &budget;
  const auto batch = classify_batch(problems, options);
  for (const auto& entry : batch) {
    EXPECT_FALSE(entry.ok());
    EXPECT_EQ(entry.error_kind(), BatchErrorKind::kCancelled);
  }
}

// Concurrent cancellation from a second thread while workers are deep in
// classification: the batch returns (promptly) with every slot either
// classified or kCancelled — never deadlocked, never missing.
TEST(Deadline, ConcurrentCancellationFromSecondThread) {
  ExecutionBudget budget;
  std::vector<PairwiseProblem> problems(4, pathological_problem());
  BatchOptions options;
  options.num_threads = 2;
  options.dedup = false;
  options.classify.budget = &budget;
  std::thread canceller([&budget]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    budget.cancel();
  });
  const auto batch = classify_batch(problems, options);
  canceller.join();
  ASSERT_EQ(batch.size(), 4u);
  for (const auto& entry : batch) {
    ASSERT_NE(entry.outcome, nullptr);
    if (!entry.ok()) {
      EXPECT_EQ(entry.error_kind(), BatchErrorKind::kCancelled);
    }
  }
}

// Deadline observables flow through classify_hardness.
TEST(Deadline, HardnessStudyReportsTimeouts) {
  std::vector<PairwiseProblem> problems = {pathological_problem(),
                                           catalog::coloring(3)};
  hardness::StudyOptions options;
  options.problem_deadline_ms = 100;
  const hardness::StudyResult result = hardness::classify_hardness(problems, options);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_TRUE(result.entries[1].ok()) << result.entries[1].error();
  EXPECT_EQ(result.entries[0].error_kind(), BatchErrorKind::kTimeout);
  EXPECT_EQ(result.timeouts, 1u);
  EXPECT_EQ(result.summary.by_error[static_cast<std::size_t>(BatchErrorKind::kTimeout)],
            1u);
}

TEST(BatchError, KindNamesAreStable) {
  EXPECT_EQ(to_string(BatchErrorKind::kTimeout), "timeout");
  EXPECT_EQ(to_string(BatchErrorKind::kBudget), "budget");
  EXPECT_EQ(to_string(BatchErrorKind::kMalformed), "malformed");
  EXPECT_EQ(to_string(BatchErrorKind::kCancelled), "cancelled");
  EXPECT_EQ(to_string(BatchErrorKind::kInternal), "internal");
}

// Budget overflows (MonoidBudgetError) map to kBudget, malformed problems
// (std::invalid_argument out of classify) to kMalformed.
TEST(BatchError, ErrorTaxonomyMapsExceptionTypes) {
  const PairwiseProblem big = catalog::coloring(4);
  const std::size_t big_monoid = classify(big).monoid_size();
  BatchOptions tight;
  tight.classify.max_monoid = big_monoid - 1;
  const auto overflow = classify_batch(std::vector<PairwiseProblem>{big}, tight);
  ASSERT_FALSE(overflow[0].ok());
  EXPECT_EQ(overflow[0].error_kind(), BatchErrorKind::kBudget);

  // An orientation-asymmetric undirected problem is rejected by the
  // transition-system builder with std::invalid_argument.
  Alphabet in, out;
  in.add("_");
  out.add("a");
  out.add("b");
  PairwiseProblem asymmetric("asymmetric", in, out, Topology::kUndirectedCycle);
  asymmetric.allow_node(0, 0);
  asymmetric.allow_node(0, 1);
  asymmetric.allow_edge(0, 1);  // (a, b) without (b, a): direction leaks
  const auto malformed =
      classify_batch(std::vector<PairwiseProblem>{asymmetric}, BatchOptions{});
  ASSERT_FALSE(malformed[0].ok());
  EXPECT_EQ(malformed[0].error_kind(), BatchErrorKind::kMalformed);
}

}  // namespace
}  // namespace lclpath
