// The chunked simulation engine's contract (simulator.hpp): for every
// thread count and chunk size — including chunk_size >= n and chunk_size
// < radius — simulate() is bit-identical to simulate_reference() below,
// the plain serial loop (same outputs, same verdict down to failed_at and
// reason, same exceptions),
// the streaming chunk verifier agrees exactly with whole-word
// verify_pairwise, the memoized full-view regime matches the per-node
// gather baseline, and adversarial (bit-reversed) ID instances round-trip
// validate() while actually being worst-case for Cole–Vishkin.
//
// Every TEST here is prefixed SimulationEngine / StreamingVerify /
// AdversarialIds; the SimulationEngine lazy-certificate hammers run in
// the TSan CI job (segment workers sharing one lazy linear-gap
// certificate).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/thread_pool.hpp"
#include "decide/classifier.hpp"
#include "lcl/catalog.hpp"
#include "local/cole_vishkin.hpp"
#include "local/simulator.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

/// The serial oracle: per-node extract_view + run, then one whole-word
/// verify_pairwise. It is also the only path that exercises extract_view
/// itself for every node.
SimulationResult simulate_reference(const LocalAlgorithm& algorithm,
                                    const PairwiseProblem& problem,
                                    const Instance& instance) {
  instance.validate();
  SimulationResult result;
  const std::size_t n = instance.size();
  result.radius = algorithm.radius(n);
  result.outputs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    const View view = extract_view(instance, v, result.radius);
    result.outputs.push_back(algorithm.run(view));
  }
  result.verdict = verify_pairwise(problem, instance.inputs, result.outputs);
  return result;
}

constexpr Topology kAllTopologies[] = {
    Topology::kDirectedPath, Topology::kDirectedCycle, Topology::kUndirectedPath,
    Topology::kUndirectedCycle};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// A deterministic function of the *entire* view content (inputs, IDs,
/// center, boundary flags, n). Any divergence between what the engine
/// presents and extract_view — one element, one flag, a center off by
/// one — changes the output label, which makes this the sharpest possible
/// probe for presentation bit-identity.
class ViewHashAlgorithm final : public LocalAlgorithm {
 public:
  ViewHashAlgorithm(std::size_t radius, std::size_t num_outputs)
      : radius_(radius), num_outputs_(num_outputs) {}
  std::string name() const override { return "view-hash"; }
  std::size_t radius(std::size_t) const override { return radius_; }
  Label run(const View& view) const override {
    std::uint64_t h = 0xdeadbeefcafef00dull;
    h = mix(h, view.n);
    h = mix(h, view.center);
    h = mix(h, view.sees_left_end ? 1 : 0);
    h = mix(h, view.sees_right_end ? 2 : 0);
    h = mix(h, static_cast<std::uint64_t>(view.topology));
    for (Label in : view.inputs) h = mix(h, in);
    for (NodeId id : view.ids) h = mix(h, id);
    return static_cast<Label>(h % num_outputs_);
  }

 private:
  std::size_t radius_;
  std::size_t num_outputs_;
};

void ExpectSameResult(const SimulationResult& got, const SimulationResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.outputs, want.outputs) << what;
  EXPECT_EQ(got.radius, want.radius) << what;
  EXPECT_EQ(got.verdict.ok, want.verdict.ok) << what;
  EXPECT_EQ(got.verdict.failed_at, want.verdict.failed_at) << what;
  EXPECT_EQ(got.verdict.reason, want.verdict.reason) << what;
}

/// Sweep every engine configuration against the serial reference on one
/// instance.
void SweepConfigs(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                  const Instance& instance, const std::string& what) {
  const SimulationResult want = simulate_reference(algorithm, problem, instance);
  const std::size_t n = instance.size();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{64}, std::size_t{0}}) {
      SimulationOptions options;
      options.threads = threads;
      options.chunk_size = chunk;
      const SimulationResult got = simulate(algorithm, problem, instance, options);
      ExpectSameResult(got, want,
                       what + " n=" + std::to_string(n) + " threads=" +
                           std::to_string(threads) + " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(SimulationEngine, BitIdenticalToReferenceAcrossConfigs) {
  Rng rng(4242);
  for (Topology topology : kAllTopologies) {
    const PairwiseProblem problem = catalog::coloring(3, topology);
    for (std::size_t radius : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                               std::size_t{17}}) {
      const ViewHashAlgorithm algorithm(radius, problem.num_outputs());
      for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{5}, std::size_t{9}, std::size_t{30},
                            std::size_t{64}}) {
        const Instance instance = random_instance(topology, n, problem.num_inputs(), rng);
        SweepConfigs(algorithm, problem, instance,
                     to_string(topology) + " r=" + std::to_string(radius));
      }
    }
  }
}

TEST(SimulationEngine, BitIdenticalOnAdversarialIds) {
  Rng rng(777);
  for (Topology topology : kAllTopologies) {
    const PairwiseProblem problem = catalog::coloring(3, topology);
    const ViewHashAlgorithm algorithm(5, problem.num_outputs());
    for (std::size_t n : {std::size_t{4}, std::size_t{13}, std::size_t{47}}) {
      const Instance instance =
          adversarial_instance(topology, n, problem.num_inputs(), rng);
      SweepConfigs(algorithm, problem, instance,
                   "adversarial " + std::string(to_string(topology)));
    }
  }
}

TEST(SimulationEngine, GatherAllMemoMatchesReference) {
  Rng rng(99);
  for (Topology topology : kAllTopologies) {
    // A one-node cycle's wrap edge is a self-loop, which no proper
    // coloring allows; always_accept keeps n = 1 solvable there.
    const PairwiseProblem coloring = catalog::coloring(3, topology);
    const PairwiseProblem accept = catalog::always_accept(topology);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{9}, std::size_t{24}}) {
      const PairwiseProblem& problem = n == 1 && is_cycle(topology) ? accept : coloring;
      const GatherAllAlgorithm algorithm(problem);
      // Random IDs, and bit-reversed ones whose neighbours differ in the
      // top bits, so the canonical anchor and direction vary a lot.
      for (const Instance& instance :
           {random_instance(topology, n, problem.num_inputs(), rng),
            adversarial_instance(topology, n, problem.num_inputs(), rng)}) {
        const std::string what =
            std::string(to_string(topology)) + " n=" + std::to_string(n);
        const SimulationResult want = simulate_reference(algorithm, problem, instance);
        ASSERT_TRUE(want.verdict.ok) << want.verdict.reason;
        // Memoized canonical solve (the default).
        const SimulationResult memo = simulate(algorithm, problem, instance);
        ExpectSameResult(memo, want, "memo " + what);
        // Honest per-node gather (memo disabled) through the chunked engine.
        SimulationOptions honest;
        honest.full_view_memo = false;
        honest.threads = 2;
        honest.chunk_size = 4;
        const SimulationResult per_node = simulate(algorithm, problem, instance, honest);
        ExpectSameResult(per_node, want, "honest " + what);
      }
    }
  }
}

/// The what() of the std::logic_error `solve_full_view` throws on `view`,
/// or "" if it throws none.
std::string full_view_logic_error(const PairwiseProblem& problem, const View& view) {
  try {
    solve_full_view(problem, view);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(SimulationEngine, SolveFullViewRejectsViewsShortOfTheInstance) {
  Rng rng(21);
  for (Topology topology : kAllTopologies) {
    const PairwiseProblem problem = catalog::coloring(3, topology);
    const Instance instance = random_instance(topology, 9, problem.num_inputs(), rng);
    if (is_cycle(topology)) {
      // 2r + 1 = 7 < 9: the window misses two nodes.
      EXPECT_EQ(full_view_logic_error(problem, extract_view(instance, 4, 3)),
                "solve_full_view: radius did not cover the whole cycle");
      EXPECT_EQ(full_view_logic_error(problem, extract_view(instance, 4, 4)), "");
    } else {
      // Node 2 with radius 5 sees the left end but not the right one,
      // node 6 the right end but not the left one.
      EXPECT_EQ(full_view_logic_error(problem, extract_view(instance, 2, 5)),
                "solve_full_view: radius did not cover the whole path");
      EXPECT_EQ(full_view_logic_error(problem, extract_view(instance, 6, 5)),
                "solve_full_view: radius did not cover the whole path");
      EXPECT_EQ(full_view_logic_error(problem, extract_view(instance, 4, 4)), "");
    }
  }
}

TEST(SimulationEngine, UnsolvableInstanceThrowsLikeReference) {
  Rng rng(7);
  // 2-coloring an odd cycle is unsolvable; the engine's memoized solve,
  // the honest per-node path and the serial reference must all throw the
  // same runtime_error.
  const PairwiseProblem problem = catalog::two_coloring(Topology::kDirectedCycle);
  const GatherAllAlgorithm algorithm(problem);
  const Instance instance = random_instance(Topology::kDirectedCycle, 5,
                                            problem.num_inputs(), rng);
  EXPECT_THROW(simulate_reference(algorithm, problem, instance), std::runtime_error);
  EXPECT_THROW(simulate(algorithm, problem, instance), std::runtime_error);
  SimulationOptions honest;
  honest.full_view_memo = false;
  EXPECT_THROW(simulate(algorithm, problem, instance, honest), std::runtime_error);
}

TEST(SimulationEngine, KeepOutputsFalsePreservesVerdict) {
  Rng rng(31337);
  for (Topology topology : kAllTopologies) {
    const PairwiseProblem problem = catalog::coloring(3, topology);
    // The hash algorithm colors essentially at random, so small instances
    // exercise both passing and failing verdicts.
    const ViewHashAlgorithm algorithm(2, problem.num_outputs());
    for (std::size_t n : {std::size_t{3}, std::size_t{8}, std::size_t{21}}) {
      const Instance instance = random_instance(topology, n, problem.num_inputs(), rng);
      const SimulationResult want = simulate_reference(algorithm, problem, instance);
      SimulationOptions options;
      options.keep_outputs = false;
      options.threads = 2;
      options.chunk_size = 5;
      const SimulationResult got = simulate(algorithm, problem, instance, options);
      EXPECT_TRUE(got.outputs.empty());
      EXPECT_EQ(got.verdict.ok, want.verdict.ok);
      EXPECT_EQ(got.verdict.failed_at, want.verdict.failed_at);
      EXPECT_EQ(got.verdict.reason, want.verdict.reason);
    }
  }
}

TEST(SimulationEngine, ReportsPlanAndAutoScalesDown) {
  Rng rng(5);
  const PairwiseProblem problem = catalog::coloring(3, Topology::kDirectedCycle);
  const ViewHashAlgorithm algorithm(1, problem.num_outputs());
  const Instance instance = random_instance(Topology::kDirectedCycle, 100,
                                            problem.num_inputs(), rng);
  // Auto options: a 100-node instance stays serial.
  const SimulationResult automatic = simulate(algorithm, problem, instance);
  EXPECT_EQ(automatic.threads_used, 1u);
  // Explicit options are honored exactly.
  SimulationOptions options;
  options.threads = 5;
  options.chunk_size = 7;
  const SimulationResult explicit_run = simulate(algorithm, problem, instance, options);
  EXPECT_EQ(explicit_run.chunks, 15u);  // ceil(100 / 7)
  EXPECT_EQ(explicit_run.threads_used, 5u);
}

// ------------------------------------------------------------------------
// Synthesized algorithms on the chunked engine: structured regime
// bit-identity, and the shared-lazy-certificate hammer for TSan.
// ------------------------------------------------------------------------

void ExpectSynthesizedChunkedMatches(const PairwiseProblem& problem,
                                     std::uint64_t seed) {
  Rng rng(seed);
  const ClassifiedProblem result = classify(problem);
  ASSERT_EQ(result.complexity(), ComplexityClass::kLogStar) << result.summary();
  const auto algorithm = result.synthesize();
  const std::size_t r = algorithm->radius(1 << 20);
  const std::size_t n = 2 * r + 33;  // just inside the structured regime
  const Instance instance = random_instance(problem.topology(), n,
                                            problem.num_inputs(), rng);
  const SimulationResult want = simulate_reference(*algorithm, problem, instance);
  ASSERT_TRUE(want.verdict.ok) << want.verdict.reason;
  // Many small chunks across several workers: every worker slides its own
  // window while all of them resolve values through the one shared
  // (lazily materialized) certificate.
  SimulationOptions options;
  options.threads = 4;
  options.chunk_size = r / 3 + 7;  // chunk_size < radius: halo spans chunks
  const SimulationResult got = simulate(*algorithm, problem, instance, options);
  ExpectSameResult(got, want, problem.name() + " chunked");
}

TEST(SimulationEngine, SynthesizedBitIdenticalDirectedPath) {
  ExpectSynthesizedChunkedMatches(catalog::coloring(3, Topology::kDirectedPath), 11);
}

TEST(SimulationEngine, SynthesizedBitIdenticalUndirectedPath) {
  ExpectSynthesizedChunkedMatches(catalog::coloring(3, Topology::kUndirectedPath), 12);
}

TEST(SimulationEngine, SharedLazyCertificateHammerDirectedCycle) {
  ExpectSynthesizedChunkedMatches(catalog::coloring(3, Topology::kDirectedCycle), 13);
}

TEST(SimulationEngine, SharedLazyCertificateHammerUndirectedCycle) {
  ExpectSynthesizedChunkedMatches(catalog::coloring(3, Topology::kUndirectedCycle), 14);
}

// ------------------------------------------------------------------------
// Budgets: every execution path charges one tick per simulated node, a
// tripped budget stops the run, and an untripped one changes nothing.
// ------------------------------------------------------------------------

/// One instance per execution path: the run_span sweep (synthesized
/// 3-coloring in its structured regime), the per-node extract_view path
/// (ViewHashAlgorithm) and the memoized full-view solve (gather-all).
struct BudgetCase {
  std::string path;
  PairwiseProblem problem;
  std::unique_ptr<ClassifiedProblem> classified;
  std::unique_ptr<LocalAlgorithm> algorithm;
  Instance instance;
};

/// The algorithms refer into their case, so the cases live in a deque
/// and are built in place.
std::deque<BudgetCase> budget_cases() {
  std::deque<BudgetCase> cases;
  Rng rng(404);
  BudgetCase& span = cases.emplace_back();
  span.path = "run_span";
  span.problem = catalog::coloring(3, Topology::kDirectedCycle);
  span.classified = std::make_unique<ClassifiedProblem>(classify(span.problem));
  span.algorithm = span.classified->synthesize();
  span.instance = random_instance(span.problem.topology(), 9000, 1, rng);

  BudgetCase& per_node = cases.emplace_back();
  per_node.path = "per-node";
  per_node.problem = catalog::coloring(3, Topology::kUndirectedPath);
  per_node.algorithm = std::make_unique<ViewHashAlgorithm>(2, per_node.problem.num_outputs());
  per_node.instance = random_instance(per_node.problem.topology(), 5000, 1, rng);

  BudgetCase& full_view = cases.emplace_back();
  full_view.path = "full-view";
  full_view.problem = catalog::coloring(3, Topology::kDirectedPath);
  full_view.algorithm = std::make_unique<GatherAllAlgorithm>(full_view.problem);
  full_view.instance = random_instance(full_view.problem.topology(), 5000, 1, rng);

  // Long enough for the chunked solve (PathDp::kChunkedMinNodes), whose
  // phases check the budget; n is no multiple of the checkpoint stride.
  const std::size_t long_n = (std::size_t{1} << 17) + 7;
  BudgetCase& chunked = cases.emplace_back();
  chunked.path = "full-view chunked solve";
  chunked.problem = catalog::two_coloring(Topology::kDirectedPath);
  chunked.algorithm = std::make_unique<GatherAllAlgorithm>(chunked.problem);
  chunked.instance = random_instance(chunked.problem.topology(), long_n, 1, rng);
  return cases;
}

SimulationOptions budget_options(std::size_t threads, const ExecutionBudget* budget) {
  SimulationOptions options;
  options.threads = threads;
  options.chunk_size = 1000;
  options.budget = budget;
  return options;
}

TEST(SimulationEngine, ZeroDeadlineBudgetStopsEveryPath) {
  for (const BudgetCase& c : budget_cases()) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ExecutionBudget budget;
      budget.set_timeout(std::chrono::milliseconds(0));
      try {
        simulate(*c.algorithm, c.problem, c.instance, budget_options(threads, &budget));
        ADD_FAILURE() << c.path << " threads " << threads << ": no CancelledError";
      } catch (const CancelledError& e) {
        EXPECT_EQ(e.reason(), CancelReason::kDeadline) << c.path << " threads " << threads;
      }
    }
  }
}

TEST(SimulationEngine, UntrippedBudgetChangesNothingAndChargesOneTickPerNode) {
  constexpr std::uint32_t kStride = ExecutionBudget::kCheckpointStride;
  for (const BudgetCase& c : budget_cases()) {
    const std::size_t n = c.instance.size();
    ASSERT_NE(n % kStride, 0u);
    const SimulationResult want = simulate(*c.algorithm, c.problem, c.instance);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string what = c.path + " threads " + std::to_string(threads);
      ExecutionBudget budget;
      budget.set_timeout(std::chrono::minutes(10));
      const SimulationResult got =
          simulate(*c.algorithm, c.problem, c.instance, budget_options(threads, &budget));
      ExpectSameResult(got, want, what);
      // The run charged exactly n ticks: the next multiple of the stride
      // is that many ticks away and no closer.
      budget.cancel();
      const std::size_t to_stride = (n / kStride + 1) * kStride - n;
      EXPECT_NO_THROW(budget.checkpoint(static_cast<std::uint32_t>(to_stride))) << what;
      EXPECT_THROW(budget.checkpoint(1), CancelledError) << what;
    }
  }
}

// A sweep charges each labeled span once: the shared tick counter sees at
// most one read-modify-write per chunk (plus one), not one per node. The
// fault-injection harness counts checkpoint() calls, so this runs in the
// LCLPATH_FAULT_INJECTION build only.
TEST(SimulationEngine, ChunkWorkersTouchTheSharedCounterOncePerChunk) {
  if (!fault::compiled_in()) GTEST_SKIP() << "needs LCLPATH_FAULT_INJECTION";
  for (const BudgetCase& c : budget_cases()) {
    if (c.path == "per-node") continue;  // one tick per node by design
    ExecutionBudget budget;
    fault::arm(fault::Kind::kCancel, ~std::uint64_t{0});
    const SimulationResult got =
        simulate(*c.algorithm, c.problem, c.instance, budget_options(4, &budget));
    const std::uint64_t checkpoints = fault::checkpoints();
    fault::disarm();
    EXPECT_LE(checkpoints, got.chunks + 1) << c.path;
    EXPECT_GT(got.chunks, 1u) << c.path;
  }
}

/// Forwards to `inner`; every run_span call announces itself and waits
/// until the test has cancelled, so the cancellation lands while the run
/// is under way and each worker labels at most the span it holds.
class PausingAlgorithm final : public LocalAlgorithm {
 public:
  explicit PausingAlgorithm(const LocalAlgorithm& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::size_t radius(std::size_t n) const override { return inner_.radius(n); }
  Label run(const View& view) const override { return inner_.run(view); }
  bool run_span(const View& window, std::size_t begin, std::size_t end,
                Label* out) const override {
    ++calls;
    started.store(true);
    while (!cancelled.load()) std::this_thread::yield();
    return inner_.run_span(window, begin, end, out);
  }

  mutable std::atomic<std::size_t> calls{0};
  mutable std::atomic<bool> started{false};
  std::atomic<bool> cancelled{false};

 private:
  const LocalAlgorithm& inner_;
};

TEST(SimulationEngine, CancelFromAnotherThreadStopsAMillionNodeRun) {
  const PairwiseProblem problem = catalog::coloring(3, Topology::kDirectedCycle);
  const ClassifiedProblem classified = classify(problem);
  const auto algorithm = classified.synthesize();
  Rng rng(405);
  const Instance instance = random_instance(problem.topology(), 1000000, 1, rng);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PausingAlgorithm pausing(*algorithm);
    ExecutionBudget budget;
    std::thread canceller([&] {
      while (!pausing.started.load()) std::this_thread::yield();
      budget.cancel();
      pausing.cancelled.store(true);
    });
    SimulationOptions options;
    options.threads = threads;
    options.chunk_size = 4096;
    options.keep_outputs = false;
    options.budget = &budget;
    try {
      simulate(pausing, problem, instance, options);
      ADD_FAILURE() << "threads " << threads << ": no CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kCancelled) << "threads " << threads;
    } catch (...) {
      ADD_FAILURE() << "threads " << threads << ": unexpected exception";
    }
    pausing.started.store(true);  // releases the canceller even if no span ran
    canceller.join();
    // Stopped early: of the run's 245 chunks, only those the workers held
    // when the budget was cancelled were labeled; later chunks saw the
    // tripped budget at their start.
    EXPECT_LE(pausing.calls.load(), threads);
  }
}

// ------------------------------------------------------------------------
// Streaming verification vs whole-word verify_pairwise.
// ------------------------------------------------------------------------

/// The streaming verifier run over `outputs` in chunks of `chunk_size`
/// nodes and merged: the engine's verification path without the engine.
VerifyResult verify_pairwise_chunked(const PairwiseProblem& problem,
                                     const Word& inputs, const Word& outputs,
                                     std::size_t chunk_size) {
  const std::size_t n = inputs.size();
  std::vector<ChunkVerdict> verdicts;
  for (std::size_t begin = 0; begin < n; begin += chunk_size) {
    const std::size_t end = std::min(n, begin + chunk_size);
    PairwiseChunkVerifier chunk(problem, n, begin, end);
    for (std::size_t v = begin; v < end; ++v) chunk.push(inputs[v], outputs[v]);
    verdicts.push_back(chunk.verdict());
  }
  return finish_chunked_verify(problem, verdicts);
}

void ExpectChunkedVerifyAgrees(const PairwiseProblem& problem, const Word& inputs,
                               const Word& outputs) {
  const VerifyResult want = verify_pairwise(problem, inputs, outputs);
  const std::size_t n = inputs.size();
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{5}, n, 2 * n}) {
    const VerifyResult got = verify_pairwise_chunked(problem, inputs, outputs, chunk);
    EXPECT_EQ(got.ok, want.ok) << problem.name() << " chunk=" << chunk;
    EXPECT_EQ(got.failed_at, want.failed_at) << problem.name() << " chunk=" << chunk;
    EXPECT_EQ(got.reason, want.reason) << problem.name() << " chunk=" << chunk;
  }
}

TEST(StreamingVerify, AgreesWithWholeWordOnRandomInstances) {
  Rng rng(2024);
  std::vector<PairwiseProblem> problems;
  for (Topology topology : kAllTopologies) {
    problems.push_back(catalog::coloring(3, topology));
    problems.push_back(catalog::copy_input(topology));
  }
  problems.push_back(testing::automata_fixture());
  for (const PairwiseProblem& problem : problems) {
    for (std::size_t n = 1; n <= 12; ++n) {
      for (int rep = 0; rep < 8; ++rep) {
        Word inputs, outputs;
        for (std::size_t v = 0; v < n; ++v) {
          inputs.push_back(static_cast<Label>(rng.next_below(problem.num_inputs())));
          outputs.push_back(static_cast<Label>(rng.next_below(problem.num_outputs())));
        }
        ExpectChunkedVerifyAgrees(problem, inputs, outputs);
      }
    }
  }
}

TEST(StreamingVerify, NodePhaseBeatsEarlierEdgeFailure) {
  // verify_pairwise checks *all* nodes before any edge, so a node failure
  // at a high index must beat an edge failure at a lower one — the
  // subtlest property the chunk merge has to preserve.
  Alphabet in({"0", "1"});
  Alphabet out({"o0", "o1"});
  PairwiseProblem problem("ordered", in, out, Topology::kDirectedPath);
  problem.allow_node("0", "o0");
  problem.allow_node("1", "o1");
  problem.allow_edge("o0", "o0");
  problem.allow_edge("o0", "o1");
  problem.allow_edge("o1", "o1");  // (o1, o0) forbidden
  const Word inputs = {1, 0, 1};
  const Word outputs = {1, 0, 0};  // edge o1->o0 fails at 1; node fails at 2
  const VerifyResult want = verify_pairwise(problem, inputs, outputs);
  ASSERT_FALSE(want.ok);
  EXPECT_EQ(want.failed_at, 2u);
  EXPECT_NE(want.reason.find("C_node"), std::string::npos);
  ExpectChunkedVerifyAgrees(problem, inputs, outputs);
}

TEST(StreamingVerify, SeamWrapAndPathEndFailures) {
  // Wrap-edge failure on a cycle: located at node 0, phase after all
  // internal edges.
  const PairwiseProblem cycle3 = catalog::coloring(3, Topology::kDirectedCycle);
  ExpectChunkedVerifyAgrees(cycle3, {0, 0, 0}, {0, 1, 0});  // wrap c0->c0
  // Degenerate one-node cycle: the wrap edge is the self-loop.
  ExpectChunkedVerifyAgrees(cycle3, {0}, {1});
  // Path-end mask: a problem that forbids one output at the last node.
  Alphabet in({"_"});
  Alphabet out({"a", "b"});
  PairwiseProblem ended("ended", in, out, Topology::kDirectedPath);
  ended.allow_node("_", "a");
  ended.allow_node("_", "b");
  for (Label x = 0; x < 2; ++x)
    for (Label y = 0; y < 2; ++y) ended.allow_edge(x, y);
  ended.forbid_last(1);
  const VerifyResult last = verify_pairwise(ended, {0, 0, 0}, {0, 0, 1});
  ASSERT_FALSE(last.ok);
  EXPECT_EQ(last.failed_at, 2u);
  ExpectChunkedVerifyAgrees(ended, {0, 0, 0}, {0, 0, 1});
}

// ------------------------------------------------------------------------
// Adversarial (bit-reversed) IDs.
// ------------------------------------------------------------------------

TEST(AdversarialIds, RoundTripValidate) {
  Rng rng(55);
  for (Topology topology : {Topology::kDirectedCycle, Topology::kUndirectedPath}) {
    Instance instance = adversarial_instance(topology, 257, 2, rng);
    EXPECT_NO_THROW(instance.validate());  // sparse-ID sort path
    // Forced duplicate still detected on the sparse path.
    instance.ids[200] = instance.ids[3];
    EXPECT_THROW(instance.validate(), std::invalid_argument);
  }
  // Compact path still detects duplicates too.
  Instance compact = make_instance(Topology::kDirectedCycle, Word(64, 0));
  compact.ids[10] = compact.ids[40];
  EXPECT_THROW(compact.validate(), std::invalid_argument);
}

// ------------------------------------------------------------------------
// validate() on a pool: per-worker bitmaps merged by word range, with the
// serial scan's outcome and message.
// ------------------------------------------------------------------------

/// validate()'s outcome: "ok" or the exception message.
std::string validate_outcome(const Instance& instance, ThreadPool* pool) {
  try {
    instance.validate(pool);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "ok";
}

void ExpectPooledValidateMatchesSerial(const Instance& instance, const std::string& what) {
  const std::string want = validate_outcome(instance, nullptr);
  for (const std::size_t workers : {2, 3, 4}) {
    ThreadPool pool(workers);
    EXPECT_EQ(validate_outcome(instance, &pool), want) << what << ", workers " << workers;
  }
}

TEST(PooledValidate, DuplicatesAcrossSlicesReportTheSerialMessage) {
  Rng rng(91);
  const Instance base = random_instance(Topology::kDirectedCycle, 1000, 2, rng);
  ExpectPooledValidateMatchesSerial(base, "distinct");
  // A pair straddling two workers' slices (the first and last quarter).
  Instance straddle = base;
  straddle.ids[990] = straddle.ids[10];
  ExpectPooledValidateMatchesSerial(straddle, "straddling pair");
  EXPECT_EQ(validate_outcome(straddle, nullptr),
            "Instance: duplicate node ID " + std::to_string(base.ids[10]));
  // Two pairs, (600, 700) and (400, 990): the serial scan meets the copy
  // at 700 first and reports that pair, although the other one starts
  // earlier.
  Instance two = base;
  two.ids[700] = two.ids[600];
  two.ids[990] = two.ids[400];
  ExpectPooledValidateMatchesSerial(two, "two pairs");
  EXPECT_EQ(validate_outcome(two, nullptr),
            "Instance: duplicate node ID " + std::to_string(base.ids[600]));
  // A pair inside one slice.
  Instance inside = base;
  inside.ids[3] = inside.ids[1];
  ExpectPooledValidateMatchesSerial(inside, "pair in one slice");
}

TEST(PooledValidate, CompactBoundAndSparseFallback) {
  const std::size_t n = 1000;
  // The pooled bitmaps cover IDs below n; the serial scan's, below 4n.
  Instance edge = make_instance(Topology::kUndirectedPath, Word(n, 0));
  edge.ids[n / 2] = n;
  ExpectPooledValidateMatchesSerial(edge, "ID n");
  EXPECT_EQ(validate_outcome(edge, nullptr), "ok");
  edge.ids[n / 3] = n;
  ExpectPooledValidateMatchesSerial(edge, "ID n twice");
  EXPECT_NE(validate_outcome(edge, nullptr), "ok");
  Instance top = make_instance(Topology::kUndirectedPath, Word(n, 0));
  top.ids[n / 2] = 4 * n - 1;  // the largest ID the serial bitmap covers
  ExpectPooledValidateMatchesSerial(top, "ID 4n - 1");
  EXPECT_EQ(validate_outcome(top, nullptr), "ok");
  Instance twice = top;
  twice.ids[n - 1] = 4 * n - 1;
  ExpectPooledValidateMatchesSerial(twice, "ID 4n - 1 twice");
  EXPECT_NE(validate_outcome(twice, nullptr), "ok");
  // 4n is sparse: the sort path decides, duplicate or not.
  Instance over = top;
  over.ids[n / 2] = 4 * n;
  ExpectPooledValidateMatchesSerial(over, "ID 4n");
  over.ids[0] = 4 * n;
  ExpectPooledValidateMatchesSerial(over, "ID 4n twice");
  EXPECT_NE(validate_outcome(over, nullptr), "ok");
  // Bit-reversed IDs are sparse from the first node on.
  Rng rng(92);
  Instance adversarial = adversarial_instance(Topology::kDirectedCycle, n, 2, rng);
  ExpectPooledValidateMatchesSerial(adversarial, "adversarial");
  EXPECT_EQ(validate_outcome(adversarial, nullptr), "ok");
  adversarial.ids[777] = adversarial.ids[5];
  ExpectPooledValidateMatchesSerial(adversarial, "adversarial duplicate");
  EXPECT_NE(validate_outcome(adversarial, nullptr), "ok");
}

TEST(PooledValidate, SimulateThrowsTheSerialMessage) {
  const PairwiseProblem problem = catalog::coloring(3, Topology::kDirectedCycle);
  Rng rng(93);
  Instance instance = random_instance(problem.topology(), 20000, 1, rng);
  instance.ids[19990] = instance.ids[15];
  const std::string want = validate_outcome(instance, nullptr);
  ASSERT_NE(want, "ok");
  const GatherAllAlgorithm algorithm(problem);
  SimulationOptions options;
  options.threads = 4;
  try {
    simulate(algorithm, problem, instance, options);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), want);
  }
}

TEST(AdversarialIds, SaltPreservesDifferences) {
  const auto plain = adversarial_ids(32, 0);
  const auto salted = adversarial_ids(32, 0x123456789abcdef0ull);
  for (std::size_t v = 0; v + 1 < plain.size(); ++v) {
    EXPECT_EQ(plain[v] ^ plain[v + 1], salted[v] ^ salted[v + 1]);
  }
}

TEST(AdversarialIds, WorstCaseForColeVishkin) {
  const std::size_t n = 1024;
  const auto adversarial = adversarial_ids(n, 9);
  std::uint64_t adversarial_max = 0;
  for (std::size_t v = 0; v + 1 < n; ++v) {
    adversarial_max = std::max(adversarial_max,
                               cv_step(adversarial[v], adversarial[v + 1]));
  }
  std::uint64_t sequential_max = 0;
  for (std::size_t v = 0; v + 1 < n; ++v) {
    sequential_max = std::max(sequential_max, cv_step(v, v + 1));
  }
  // Sequential IDs differ in a low bit (<= log2 n), so one halving step
  // already collapses them to small colors; bit-reversed IDs differ at the
  // top of the word, pinning the first step near its 2*63+1 maximum.
  EXPECT_LE(sequential_max, 2 * 10 + 1);
  EXPECT_GE(adversarial_max, 2 * 60);
}

}  // namespace
}  // namespace lclpath
