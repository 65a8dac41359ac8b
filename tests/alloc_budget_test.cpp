// Heap-allocation budgets for the three per-problem hot paths of a cold
// classify, Monoid::enumerate, decide_linear_gap and decide_const_gap, for
// the path DP (complete_by_dp) that gather-all and the synthesized
// completions run, for the ruling-set and ell-orientation window kernels
// (0 once their scratch has grown), and for simulate() of the synthesized
// O(1) and log* algorithms (1.8-7.3 per 1000 nodes, bound 9). This binary replaces the global operator new / delete (sized
// variants included) with counting wrappers around malloc / free, so it
// measures exactly the allocations the library asks for. Only the
// measured calls are counted; gtest's own allocations are not.
//
// The workload is a fixed seeded set of directed problems with at most
// five outputs (so every BitMatrix is the inline one-word kind) plus the
// directed validation catalog (tests/directed_workload.hpp). The bounds
// sit ~20% above the means measured when they were set (enumerate 46.0,
// decide_linear_gap 40.2, decide_const_gap 13.6 per call; the same in
// Release, Debug and ASan builds). Nested per-row vectors in the decider
// state, or a vector per intern-index bucket, measure 298.7 and 61.1 for
// the linear-gap decider; per-element vectors and node-based hash indexes
// in the const-gap decider measured 220.0.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "automata/monoid.hpp"
#include "automata/solvability.hpp"
#include "core/rng.hpp"
#include "decide/classifier.hpp"
#include "decide/const_gap.hpp"
#include "decide/linear_gap.hpp"
#include "directed_workload.hpp"
#include "lcl/catalog.hpp"
#include "lcl/verifier.hpp"
#include "local/decomposition.hpp"
#include "local/orientation.hpp"
#include "local/simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lclpath {
namespace {

/// Runs `fn` with allocation counting on; returns the allocations it made.
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationBudget, EnumerateAndDecidersStayWithinTheirBudgets) {
  std::size_t enumerate_calls = 0;
  std::size_t enumerate_allocations = 0;
  std::size_t decide_calls = 0;
  std::size_t decide_allocations = 0;
  std::size_t const_calls = 0;
  std::size_t const_allocations = 0;
  for (const PairwiseProblem& problem : testing::seeded_directed_workload()) {
    const TransitionSystem ts = TransitionSystem::build(problem);
    std::optional<Monoid> monoid;
    enumerate_allocations += count_allocations([&] { monoid.emplace(Monoid::enumerate(ts)); });
    ++enumerate_calls;
    // classify() runs the linear-gap decider on solvable problems only,
    // and the const-gap decider only where the linear-gap one succeeds.
    if (!check_solvability(*monoid, problem.topology()).solvable) continue;
    std::optional<LinearGapCertificate> certificate;
    decide_allocations +=
        count_allocations([&] { certificate.emplace(decide_linear_gap(*monoid)); });
    ++decide_calls;
    if (!certificate->feasible) continue;
    std::optional<ConstGapCertificate> constant;
    const_allocations += count_allocations([&] { constant.emplace(decide_const_gap(*monoid)); });
    ++const_calls;
  }
  ASSERT_GT(decide_calls, 100u);
  ASSERT_GT(const_calls, 100u);
  const auto mean = [](std::size_t allocations, std::size_t calls) {
    return static_cast<double>(allocations) / static_cast<double>(calls);
  };
  const double per_enumerate = mean(enumerate_allocations, enumerate_calls);
  const double per_decide = mean(decide_allocations, decide_calls);
  const double per_const = mean(const_allocations, const_calls);
  std::printf("allocations per call: Monoid::enumerate %.1f, decide_linear_gap %.1f, "
              "decide_const_gap %.1f\n",
              per_enumerate, per_decide, per_const);
  EXPECT_LE(per_enumerate, 55.0) << enumerate_calls << " Monoid::enumerate calls";
  EXPECT_LE(per_decide, 48.0) << decide_calls << " decide_linear_gap calls";
  EXPECT_LE(per_const, 20.0) << const_calls << " decide_const_gap calls";
}

/// Proper coloring with `beta` colors (every color allowed at every node,
/// every edge between distinct colors).
PairwiseProblem coloring_problem(std::size_t beta, Topology topology) {
  Alphabet inputs;
  inputs.add("x");
  Alphabet outputs;
  for (std::size_t o = 0; o < beta; ++o) {
    outputs.add(std::string("c").append(std::to_string(o)));
  }
  PairwiseProblem problem("coloring", inputs, outputs, topology);
  for (Label o = 0; o < beta; ++o) problem.allow_node(0, o);
  for (Label a = 0; a < beta; ++a) {
    for (Label b = 0; b < beta; ++b) {
      if (a != b) problem.allow_edge(a, b);
    }
  }
  return problem;
}

/// Mean allocations per complete_by_dp call on an n-node word with one pin.
double allocations_per_completion(const PairwiseProblem& problem, std::size_t n) {
  constexpr std::size_t kCalls = 20;
  const Word inputs(n, 0);
  std::vector<std::optional<Label>> pins(n);
  pins[n / 2] = static_cast<Label>(problem.num_outputs() - 1);
  std::size_t allocations = 0;
  for (std::size_t call = 0; call < kCalls; ++call) {
    std::optional<Word> labeling;
    allocations +=
        count_allocations([&] { labeling = complete_by_dp(problem, inputs, pins); });
    EXPECT_TRUE(labeling.has_value());
  }
  return static_cast<double>(allocations) / static_cast<double>(kCalls);
}

// complete_by_dp allocates its tables, its reach words and the result,
// however long the word and however many 64-label words a set takes
// (measured: 3.0 per call in every configuration below). A per-node label
// set on the heap (beta > 64) makes the count grow with n.
TEST(AllocationBudget, CompleteByDpAllocatesIndependentlyOfTheWordLength) {
  for (const Topology topology : {Topology::kDirectedPath, Topology::kDirectedCycle}) {
    for (const std::size_t beta : {3, 65}) {
      const PairwiseProblem problem = coloring_problem(beta, topology);
      const double short_word = allocations_per_completion(problem, 10);
      const double long_word = allocations_per_completion(problem, 10000);
      std::printf("allocations per complete_by_dp call, %s, beta %zu: %.1f (n = 10), "
                  "%.1f (n = 10^4)\n",
                  to_string(topology).c_str(), beta, short_word, long_word);
      EXPECT_LE(short_word, 4.0) << "beta " << beta;
      EXPECT_EQ(short_word, long_word) << "beta " << beta;
    }
  }
}

// The ruling-set and ell-orientation window kernels work only in their
// caller-owned scratch: once it has grown to the longest window, a call
// allocates nothing (the multi-pass orientation made five window-length
// vectors per call).
TEST(AllocationBudget, WindowKernelsAllocateNothingOnceTheirScratchHasGrown) {
  Rng rng(26);
  std::vector<std::vector<NodeId>> windows;
  for (const std::size_t len : {3000, 1, 17, 2999, 640, 2048}) {
    std::vector<NodeId> ids;
    for (const std::size_t id : rng.permutation(len)) ids.push_back(id);
    windows.push_back(std::move(ids));
  }
  windows.push_back(adversarial_ids(3000, 7));
  RulingScratch ruling;
  std::vector<std::size_t> members;
  OrientationScratch orientation;
  std::vector<Direction> directions;
  const auto sweep = [&] {
    for (const std::vector<NodeId>& ids : windows) {
      for (const std::size_t min_gap : {2, 20, 64}) {
        ruling_members_segment(ids, min_gap, min_gap == 20, min_gap != 2, members, ruling);
      }
      for (const std::size_t ell : {1, 40}) {
        orientation_directions_window(ids, ell, directions, orientation);
      }
    }
  };
  sweep();  // grows the scratch
  const std::size_t allocations = count_allocations(sweep);
  std::printf("allocations in %zu warm ruling-set and orientation calls: %zu\n",
              windows.size() * 5, allocations);
  EXPECT_EQ(allocations, 0u);
}

// simulate() of the synthesized O(1) and Theta(log* n) algorithms keeps
// its layout and completion buffers across the segments, gaps and blocks
// of a window, so what it allocates is per chunk, not per node. Measured
// at 5 * 10^4 nodes and one worker (four chunks): 1.8-7.3 allocations per
// 1000 nodes over every catalog problem of those classes on all four
// topologies (2.1-9.2 while the window kernels kept per-position records
// and the orientation allocated per window), down from 535-2759 when
// every segment, gap completion and anchored position allocated.
TEST(AllocationBudget, SynthesizedSimulationAllocatesPerChunkNotPerNode) {
  constexpr std::size_t kNodes = 50000;
  std::size_t cases = 0;
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    if (entry.expected != ComplexityClass::kConstant &&
        entry.expected != ComplexityClass::kLogStar) {
      continue;
    }
    for (const Topology topology :
         {Topology::kDirectedCycle, Topology::kDirectedPath, Topology::kUndirectedCycle,
          Topology::kUndirectedPath}) {
      PairwiseProblem problem = entry.problem;
      problem.set_topology(topology);
      // classify() rejects undirected topologies for these.
      if (!is_directed(topology) && !problem.is_orientation_symmetric()) continue;
      const ClassifiedProblem classified = classify(problem);
      ASSERT_EQ(classified.complexity(), entry.expected) << classified.summary();
      const auto algorithm = classified.synthesize();
      Rng rng(11);
      const Instance instance = random_instance(topology, kNodes, problem.num_inputs(), rng);
      SimulationOptions options;
      options.threads = 1;
      std::optional<SimulationResult> result;
      const std::size_t allocations = count_allocations(
          [&] { result.emplace(simulate(*algorithm, problem, instance, options)); });
      EXPECT_TRUE(result->verdict.ok) << classified.summary();
      const double per_1000 =
          1000.0 * static_cast<double>(allocations) / static_cast<double>(kNodes);
      std::printf("allocations per 1000 simulated nodes, %s: %.2f\n",
                  classified.summary().c_str(), per_1000);
      EXPECT_LE(per_1000, 9.0) << classified.summary();
      ++cases;
    }
  }
  EXPECT_GE(cases, 20u);
}

}  // namespace
}  // namespace lclpath
