// Fault-injection sweep over the cancellation checkpoints.
//
// With LCLPATH_FAULT_INJECTION compiled in, fault::arm() makes exactly one
// ExecutionBudget::checkpoint() throw a scripted failure. The sweep runs a
// representative workload, measures its clean checkpoint count, then
// re-runs it with the fault armed at a spread of indices — every armed run
// must surface a structured BatchError (never crash, never hang), leave
// sibling results bit-identical to the clean run, and leave zero poisoned
// entries in the Monoid/Batch caches. Without the option every sweep
// GTEST_SKIPs; the concurrent-cancellation test at the bottom runs in any
// build and is what the TSan CI job exercises.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "automata/monoid.hpp"
#include "core/cancel.hpp"
#include "core/fault_injection.hpp"
#include "decide/batch.hpp"
#include "hardness/undirected.hpp"
#include "lcl/catalog.hpp"

namespace lclpath {
namespace {

// Workloads chosen so the sweep crosses every instrumented loop family:
// monoid BFS, the factorized linear-gap search (feasible and infeasible,
// directed and lifted undirected), and const-gap / feasibility via the
// cheap catalog problems.
std::vector<PairwiseProblem> sweep_problems() {
  return {catalog::coloring(3),
          catalog::agreement(),
          hardness::lift_to_undirected(catalog::two_coloring())};
}

// Caps the sweep cost: when a clean run hits many checkpoints, sample the
// index space with a fixed stride instead of sweeping every index.
std::vector<std::uint64_t> sample_indices(std::uint64_t total) {
  std::vector<std::uint64_t> indices;
  if (total == 0) return indices;
  constexpr std::uint64_t kMaxArms = 64;
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / kMaxArms);
  for (std::uint64_t at = 0; at < total; at += stride) indices.push_back(at);
  indices.push_back(total - 1);  // the last checkpoint is a boundary case
  return indices;
}

struct CleanRun {
  std::vector<BatchEntry> entries;
  std::uint64_t checkpoints = 0;
};

CleanRun run_clean(const std::vector<PairwiseProblem>& problems,
                   const BatchOptions& options) {
  // Armed "at infinity": counts checkpoints without ever firing. Fresh
  // caches mirror the armed runs so the checkpoint counts line up.
  MonoidCache monoids;
  BatchCache cache;
  BatchOptions clean_options = options;
  clean_options.classify.monoid_cache = &monoids;
  clean_options.cache = &cache;
  fault::arm(fault::Kind::kCancel, ~std::uint64_t{0});
  CleanRun clean;
  clean.entries = classify_batch(problems, clean_options);
  clean.checkpoints = fault::checkpoints();
  fault::disarm();
  for (const auto& entry : clean.entries) {
    EXPECT_TRUE(entry.ok()) << entry.error();
  }
  return clean;
}

/// `direct[i]` is classify(problems[i]).verdict(), computed with the
/// harness disarmed and no shared cache.
void expect_entries_match(const std::vector<BatchEntry>& got,
                          const std::vector<BatchEntry>& want,
                          const std::vector<Verdict>& direct,
                          std::size_t skip_ok_check_if_failed) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), direct.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i == skip_ok_check_if_failed && !got[i].ok()) continue;
    ASSERT_TRUE(got[i].ok()) << got[i].error();
    const Verdict& verdict = got[i].classified();
    EXPECT_EQ(verdict.complexity(), want[i].classified().complexity());
    EXPECT_EQ(verdict.summary(), want[i].classified().summary());
    EXPECT_EQ(verdict.complexity(), direct[i].complexity());
    EXPECT_EQ(verdict.problem(), direct[i].problem());
    EXPECT_EQ(verdict.summary(), direct[i].summary());
  }
}

void sweep(fault::Kind kind, BatchErrorKind expected_kind) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "build with -DLCLPATH_FAULT_INJECTION=ON to run the sweep";
  }
  const std::vector<PairwiseProblem> problems = sweep_problems();
  // checkpoint() only runs (and only feeds the fault harness) when a
  // budget is installed; a limitless one keeps the clean run clean.
  ExecutionBudget limitless;
  BatchOptions options;
  options.num_threads = 1;  // deterministic checkpoint ordering for the sweep
  options.classify.budget = &limitless;
  const CleanRun clean = run_clean(problems, options);
  ASSERT_GT(clean.checkpoints, 0u)
      << "workload never hit a checkpoint — instrumentation regressed";
  std::vector<Verdict> direct;
  for (const PairwiseProblem& problem : problems) {
    direct.push_back(classify(problem).verdict());
  }

  for (const std::uint64_t at : sample_indices(clean.checkpoints)) {
    MonoidCache monoids;
    BatchCache cache;
    BatchOptions armed_options = options;
    armed_options.classify.monoid_cache = &monoids;
    armed_options.cache = &cache;
    fault::arm(kind, at);
    const auto entries = classify_batch(problems, armed_options);
    fault::disarm();

    // Exactly one slot failed (the one whose checkpoint fired), with the
    // structured kind; every other slot matches the clean run exactly.
    std::size_t failed_at = entries.size();
    std::size_t failures = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      ASSERT_NE(entries[i].outcome, nullptr) << "missing outcome at k=" << at;
      if (!entries[i].ok()) {
        failed_at = i;
        ++failures;
        EXPECT_EQ(entries[i].error_kind(), expected_kind)
            << "k=" << at << ": " << entries[i].error();
      }
    }
    ASSERT_TRUE(fault::fired()) << "armed checkpoint k=" << at << " never ran";
    ASSERT_EQ(failures, 1u) << "k=" << at;
    expect_entries_match(entries, clean.entries, direct, failed_at);

    // No poisoned cache entries: the batch cache holds exactly the ok
    // slots, and re-running with the same caches must reproduce the clean
    // results (a stale half-built monoid would corrupt them).
    EXPECT_EQ(cache.size(), entries.size() - failures) << "k=" << at;
    const auto healed = classify_batch(problems, armed_options);
    expect_entries_match(healed, clean.entries, direct, entries.size());
    EXPECT_TRUE(healed[failed_at].ok()) << healed[failed_at].error();
    EXPECT_FALSE(healed[failed_at].from_cache)
        << "k=" << at << ": failed slot was served from a poisoned cache";
  }
}

TEST(FaultInjection, CancelSweepUnwindsCleanlyEverywhere) {
  sweep(fault::Kind::kCancel, BatchErrorKind::kCancelled);
}

TEST(FaultInjection, BadAllocSweepUnwindsCleanlyEverywhere) {
  sweep(fault::Kind::kBadAlloc, BatchErrorKind::kBudget);
}

// Single-problem sweep through classify() directly (no batch machinery):
// the CancelledError must propagate typed, and a shared MonoidCache must
// end the run empty — never holding the aborted problem's monoid.
TEST(FaultInjection, ClassifySweepLeavesMonoidCacheEmpty) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "build with -DLCLPATH_FAULT_INJECTION=ON to run the sweep";
  }
  const PairwiseProblem problem = hardness::lift_to_undirected(catalog::two_coloring());
  ExecutionBudget limitless;
  {
    MonoidCache monoids;
    ClassifyOptions options;
    options.budget = &limitless;
    options.monoid_cache = &monoids;
    fault::arm(fault::Kind::kCancel, ~std::uint64_t{0});
    (void)classify(problem, options);
    fault::disarm();
  }
  const std::uint64_t total = fault::checkpoints();
  ASSERT_GT(total, 0u);

  for (const std::uint64_t at : sample_indices(total)) {
    MonoidCache monoids;
    ClassifyOptions options;
    options.budget = &limitless;
    options.monoid_cache = &monoids;
    fault::arm(fault::Kind::kCancel, at);
    try {
      (void)classify(problem, options);
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kCancelled) << "k=" << at;
    }
    fault::disarm();
    EXPECT_EQ(monoids.size(), 0u)
        << "k=" << at << ": cancelled classify published a monoid";
  }
}

// Runs in every build (no fault harness needed); under the TSan CI job
// this is the cancellation data-race check: one thread flips the budget
// while pool workers hammer checkpoint() on it.
TEST(FaultInjection, ConcurrentCancellationIsRaceFree) {
  for (int round = 0; round < 3; ++round) {
    ExecutionBudget budget;
    std::vector<PairwiseProblem> problems(
        4, hardness::lift_to_undirected(catalog::two_coloring()));
    BatchOptions options;
    options.num_threads = 2;
    options.dedup = false;
    options.classify.budget = &budget;
    std::thread canceller([&budget, round]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
      budget.cancel();
    });
    const auto entries = classify_batch(problems, options);
    canceller.join();
    for (const auto& entry : entries) {
      ASSERT_NE(entry.outcome, nullptr);
      if (!entry.ok()) {
        EXPECT_EQ(entry.error_kind(), BatchErrorKind::kCancelled);
      }
    }
  }
}

}  // namespace
}  // namespace lclpath
