// The LOCAL model simulator — chunked, thread-pooled, streaming.
//
// The paper's Section 2 observation: an algorithm with running time T(n)
// is equivalent to a function from radius-T(n) neighborhoods to outputs.
// We simulate exactly that: each node receives its *view* — the inputs,
// IDs and boundary shape of its radius-T window — and must return an
// output label. The simulator enforces locality by construction: a node's
// output can only depend on what is in its view.
//
// Execution model (million-node engine). simulate() splits the path /
// cycle into contiguous chunks of nodes and runs each chunk on the shared
// ThreadPool. Workers never copy a halo: a chunk's node windows are read
// straight from the instance arrays (the radius-r halo is the index range
// [begin - r, end + r), wrapping on cycles), so chunking at any
// granularity — including chunk_size < radius — is safe by construction.
// Within a chunk the worker reuses one sliding-window View buffer:
// advancing from node v to v+1 pops the front element, pushes the next
// halo element, and shifts the center, so the hot loop performs zero
// allocations. Undirected windows are re-canonicalized in place (reverse
// if the reversed ID sequence is lexicographically smaller, run, reverse
// back), which keeps the presentation bit-identical to extract_view.
//
// Verification is streaming: each chunk feeds its (input, output) pairs
// into a PairwiseChunkVerifier as they are produced, and the per-chunk
// verdicts are merged with the seam edges and the cycle wrap edge
// (lcl/verifier.hpp) into the exact whole-word verify_pairwise verdict.
// With SimulationOptions::keep_outputs = false the engine never
// materializes the output Word at all — verification state per chunk is
// O(1) — which is what makes 10^7–10^8-node runs affordable.
//
// Full-view regime. When the radius covers the whole instance (cycles:
// 2r + 1 >= n; paths: r >= n - 1) and the algorithm declares (via
// full_view_problem()) that it answers such views with solve_full_view,
// the engine solves the canonical word once and reads every node's label
// off the shared solution — O(n) instead of the O(n^2) of n per-node
// re-solves. SimulationOptions::full_view_memo = false disables the
// memoization and restores the honest per-node gather baseline.
//
// Bit-identity: for every thread count and chunk size, simulate() produces
// the same outputs, the same verdict (including failed_at and reason), and
// the same exceptions as the plain serial loop (per-node extract_view +
// run, then one whole-word verify_pairwise). The simulation_engine_test
// suite keeps that loop as its oracle and sweeps exactly that equivalence.
//
// Locality validation beyond construction: tests also run the
// view-agreement property (two instances whose windows around v coincide
// must produce the same output at v), which guards against algorithms
// smuggling global information through the `n` parameter.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "lcl/verifier.hpp"
#include "local/instance.hpp"

namespace lclpath {

/// What a node sees after T rounds: the window of the graph within
/// distance T, clipped at path endpoints.
struct View {
  /// Inputs/IDs in path order within the window.
  Word inputs;
  std::vector<NodeId> ids;
  /// Position of the observing node within the window.
  std::size_t center = 0;
  /// True if the window is clipped on that side by a path endpoint.
  bool sees_left_end = false;
  bool sees_right_end = false;
  /// Number of nodes of the instance (known to all nodes in LOCAL).
  std::size_t n = 0;
  /// Whether the underlying topology is directed / a cycle.
  Topology topology = Topology::kDirectedCycle;

  std::size_t size() const { return inputs.size(); }
};

/// Extracts the radius-T view of node v. On cycles the window wraps; if
/// 2T + 1 >= n the node sees the whole cycle (window size capped at n and
/// the node knows it, because it knows n).
///
/// Undirected topologies are canonicalized so the storage orientation
/// cannot leak: end-free windows are presented in whichever direction
/// reads the lexicographically smaller ID sequence (IDs are distinct, so
/// this is well defined), and full-cycle views pick the rotation direction
/// the same way. Path windows that see an end keep global order — the two
/// physical ends of a path are distinguishable (the first/last constraints
/// anchor there), so end identity is content.
View extract_view(const Instance& instance, std::size_t v, std::size_t radius);

/// A deterministic LOCAL algorithm in view form.
class LocalAlgorithm {
 public:
  virtual ~LocalAlgorithm() = default;

  virtual std::string name() const = 0;
  /// The running time on n-node instances (view radius).
  virtual std::size_t radius(std::size_t n) const = 0;
  /// The output of a node given its radius(n) view.
  virtual Label run(const View& view) const = 0;

  /// Non-null iff run() answers every *instance-covering* view (a full
  /// cycle rotation, or a path window seeing both ends, on instances where
  /// radius(n) covers everything) by solve_full_view against the returned
  /// problem. Declaring this lets the engine memoize the canonical solve
  /// once per run instead of re-solving the same n-sized word n times.
  /// The default (nullptr) promises nothing and keeps per-node execution.
  virtual const PairwiseProblem* full_view_problem() const { return nullptr; }

  /// Batched span form (the chunk-sweep fast path). `window` is one
  /// contiguous stretch of the instance — a chunk plus its radius(n) halo
  /// on each side, clipped at path ends (sees_* flags set accordingly) and
  /// never longer than n on cycles — presented in storage order, NOT
  /// per-node canonicalized. Implementations must write, for each window
  /// position p in [begin, end), the label of the node sitting at p into
  /// out[p - begin], and must return false (without touching `out`) when
  /// they have no batched implementation, leaving the engine on its
  /// node-by-node path.
  ///
  /// Contract: out[p - begin] must equal run(extract_view(...)) of that
  /// node exactly — amortizing layout work across the span (and being
  /// presentation-equivariant on undirected topologies) must not change a
  /// single label. The engine guarantees begin >= radius(n) from the left
  /// window edge and end <= size() - radius(n) from the right, except
  /// where the window is clipped by a real path end. Support must be
  /// uniform: an implementation may not return true for some windows of an
  /// instance and false for others.
  virtual bool run_span(const View& window, std::size_t begin, std::size_t end,
                        Label* out) const {
    (void)window;
    (void)begin;
    (void)end;
    (void)out;
    return false;
  }
};

/// Knobs for the chunked engine. The defaults reproduce the historical
/// simulate() behavior (outputs materialized, memoized full-view regime)
/// while auto-scaling worker count with instance size.
struct SimulationOptions {
  /// Worker threads. 0 = auto: about one worker per 4096 nodes, capped at
  /// hardware concurrency, so small instances run inline and serial.
  std::size_t threads = 0;
  /// Nodes per chunk. 0 = auto (about four chunks per worker). Any value
  /// >= 1 is legal, including chunk_size < radius and chunk_size >= n.
  std::size_t chunk_size = 0;
  /// When false, the engine streams outputs into the verifier and never
  /// materializes the output Word (SimulationResult::outputs stays empty).
  bool keep_outputs = true;
  /// When false, full-view-regime algorithms run node-by-node even if they
  /// declare full_view_problem() — the honest Theta(n^2) gather baseline.
  bool full_view_memo = true;
  /// Optional cooperative cancellation/deadline budget (core/cancel.hpp),
  /// checkpointed once per simulated node in every chunk worker. A tripped
  /// limit aborts the run with CancelledError (the earliest chunk's, under
  /// the engine's deterministic error-collection order). Null = unbounded.
  const ExecutionBudget* budget = nullptr;
};

/// Result of simulating an algorithm over an instance.
struct SimulationResult {
  Word outputs;            ///< empty when SimulationOptions::keep_outputs is false
  std::size_t radius = 0;  ///< rounds used
  VerifyResult verdict;    ///< verification against the problem
  std::size_t threads_used = 1;  ///< pool workers the engine ran with
  std::size_t chunks = 1;        ///< chunks the instance was split into
};

/// Runs the algorithm on every node and verifies the global output with
/// the chunked streaming engine described above.
SimulationResult simulate(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                          const Instance& instance, const SimulationOptions& options);

/// Default-options overload (kept so historical call sites read unchanged).
SimulationResult simulate(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                          const Instance& instance);

/// Canonical whole-instance solve for a view that covers everything (a
/// full cycle, or a path window seeing both ends): every node derives the
/// same content-determined anchor/direction, solves the same word by DP
/// and reads off its own label. Shared by GatherAllAlgorithm and by the
/// synthesized algorithms' small-n regime; throws if the view does not
/// cover the instance or the instance has no valid labeling.
Label solve_full_view(const PairwiseProblem& problem, const View& view);

/// The Theta(n) baseline: gather everything, solve by DP, output your own
/// label. This is the paper's "any solvable problem is O(n)" algorithm
/// and the ground-truth oracle for the synthesized algorithms. Declares
/// full_view_problem(), so the engine's memoized path makes the baseline
/// itself O(n) per instance instead of O(n^2).
class GatherAllAlgorithm final : public LocalAlgorithm {
 public:
  explicit GatherAllAlgorithm(const PairwiseProblem& problem) : problem_(&problem) {}
  std::string name() const override { return "gather-all"; }
  std::size_t radius(std::size_t n) const override { return n; }
  Label run(const View& view) const override;
  const PairwiseProblem* full_view_problem() const override { return problem_; }

 private:
  const PairwiseProblem* problem_;
};

}  // namespace lclpath
