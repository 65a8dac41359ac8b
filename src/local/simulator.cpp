#include "local/simulator.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/thread_pool.hpp"

namespace lclpath {

namespace {

/// Lexicographic comparison of the reversed ID sequence against the
/// forward one. IDs are distinct, so the comparison never ties for
/// windows of length >= 2.
bool reversed_ids_smaller(const std::vector<NodeId>& ids) {
  const std::size_t len = ids.size();
  for (std::size_t k = 0; k < len; ++k) {
    const NodeId fwd = ids[k];
    const NodeId rev = ids[len - 1 - k];
    if (fwd != rev) return rev < fwd;
  }
  return false;
}

}  // namespace

View extract_view(const Instance& instance, std::size_t v, std::size_t radius) {
  const std::size_t n = instance.size();
  const bool undirected = !is_directed(instance.topology);
  View view;
  view.n = n;
  view.topology = instance.topology;
  if (instance.cycle()) {
    if (2 * radius + 1 >= n) {
      // The node sees the entire cycle; present it as the rotation
      // starting at v (center 0). The algorithm can tell because
      // size() == n. On undirected cycles the storage direction must not
      // leak: present the rotation in whichever direction reads the
      // lexicographically smaller ID sequence.
      std::ptrdiff_t step = 1;
      if (undirected && n >= 2) {
        for (std::size_t k = 1; k < n; ++k) {
          const NodeId fwd = instance.ids[(v + k) % n];
          const NodeId bwd = instance.ids[(v + n - k) % n];
          if (fwd != bwd) {
            step = bwd < fwd ? -1 : 1;
            break;
          }
        }
      }
      view.center = 0;
      view.inputs.reserve(n);
      view.ids.reserve(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = step > 0 ? (v + k) % n : (v + n - k) % n;
        view.inputs.push_back(instance.inputs[idx]);
        view.ids.push_back(instance.ids[idx]);
      }
      return view;
    }
    view.center = radius;
    view.inputs.reserve(2 * radius + 1);
    view.ids.reserve(2 * radius + 1);
    for (std::size_t k = 0; k < 2 * radius + 1; ++k) {
      const std::size_t idx = (v + n + k - radius) % n;
      view.inputs.push_back(instance.inputs[idx]);
      view.ids.push_back(instance.ids[idx]);
    }
    // Undirected canonicalization: the window is symmetric around the
    // center, so reversing it is the other legal presentation; pick the
    // one whose ID sequence is lexicographically smaller. This erases the
    // storage orientation from what the algorithm can observe (locality /
    // orientation-independence by construction).
    if (undirected && reversed_ids_smaller(view.ids)) {
      std::reverse(view.inputs.begin(), view.inputs.end());
      std::reverse(view.ids.begin(), view.ids.end());
    }
    return view;
  }
  const std::size_t lo = v >= radius ? v - radius : 0;
  const std::size_t hi = std::min(n - 1, v + radius);
  view.center = v - lo;
  view.sees_left_end = v <= radius;
  view.sees_right_end = v + radius >= n - 1;
  for (std::size_t idx = lo; idx <= hi; ++idx) {
    view.inputs.push_back(instance.inputs[idx]);
    view.ids.push_back(instance.ids[idx]);
  }
  // Undirected paths: a window that sees an end is oriented by it (the
  // two physical ends are distinguishable — the first/last constraints
  // are anchored there — so end identity is content, not leaked storage
  // order). End-free middle windows are canonicalized like cycle windows.
  if (undirected && !view.sees_left_end && !view.sees_right_end &&
      reversed_ids_smaller(view.ids)) {
    std::reverse(view.inputs.begin(), view.inputs.end());
    std::reverse(view.ids.begin(), view.ids.end());
    view.center = view.size() - 1 - view.center;
  }
  return view;
}

namespace {

/// Auto-threading: roughly one worker per this many nodes, so small
/// instances (unit tests, CLI toys) stay inline and serial.
constexpr std::size_t kAutoNodesPerThread = 4096;
/// Auto chunk sizes never drop below this (per-chunk setup is O(radius)).
constexpr std::size_t kMinAutoChunk = 1024;

struct EnginePlan {
  std::size_t threads = 1;
  std::size_t chunk = 1;
  std::size_t num_chunks = 1;
};

EnginePlan plan_run(std::size_t n, const SimulationOptions& options) {
  EnginePlan plan;
  std::size_t threads = options.threads;
  if (threads == 0) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads = std::clamp<std::size_t>(n / kAutoNodesPerThread, 1, hw);
  }
  threads = std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(n, 1));
  std::size_t chunk = options.chunk_size;
  if (chunk == 0) {
    // About four chunks per worker keeps the pool busy when chunks run
    // unevenly (e.g. path ends with clipped windows).
    chunk = std::max((n + 4 * threads - 1) / (4 * threads), kMinAutoChunk);
  }
  plan.chunk = std::clamp<std::size_t>(chunk, 1, std::max<std::size_t>(n, 1));
  plan.num_chunks = n == 0 ? 1 : (n + plan.chunk - 1) / plan.chunk;
  plan.threads = std::min(threads, plan.num_chunks);
  return plan;
}

/// Charges `ticks` simulated nodes to the (nullable) budget, one
/// checkpoint per call, so chunk workers touch the shared tick counter
/// once per span instead of once per node.
void charge(const ExecutionBudget* budget, std::size_t ticks) {
  constexpr std::size_t kMaxCharge = std::numeric_limits<std::uint32_t>::max();
  for (; ticks > kMaxCharge; ticks -= kMaxCharge) budget_checkpoint(budget, kMaxCharge);
  budget_checkpoint(budget, static_cast<std::uint32_t>(ticks));
}

/// Runs `run_chunk(begin, end)` on each of the plan's chunks of [0, n),
/// on the run's pool (inline when it is null), and returns the chunk
/// verdicts in index order. Every chunk is collected before rethrowing, so
/// the pool drains cleanly and the reported exception is the earliest
/// chunk's (matching the serial reference, which throws at the first
/// failing node).
template <class RunChunk>
std::vector<ChunkVerdict> run_chunks(std::size_t n, const EnginePlan& plan, ThreadPool* pool,
                                     const RunChunk& run_chunk) {
  std::vector<ChunkVerdict> verdicts(plan.num_chunks);
  parallel_for(pool, plan.num_chunks, [&](std::size_t k) {
    const std::size_t begin = k * plan.chunk;
    verdicts[k] = run_chunk(begin, std::min(n, begin + plan.chunk));
  });
  return verdicts;
}

/// Per-chunk execution: label nodes [begin, end) with one run_span sweep
/// when the algorithm has one, else node by node on extract_view, and
/// stream every (input, output) pair into a chunk verifier. Outputs are
/// written into `out` (disjoint ranges per chunk) when non-null.
class ChunkRunner {
 public:
  ChunkRunner(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
              const Instance& instance, std::size_t radius, Label* out,
              const ExecutionBudget* budget = nullptr)
      : algorithm_(algorithm),
        problem_(problem),
        instance_(instance),
        radius_(radius),
        out_(out),
        budget_(budget) {}

  ChunkVerdict run(std::size_t begin, std::size_t end) const {
    // A chunk that starts after the budget tripped does no work (a check
    // reads the limits without touching the shared tick counter).
    budget_check(budget_);
    PairwiseChunkVerifier verifier(problem_, instance_.size(), begin, end);
    if (!try_span(begin, end, verifier)) {
      for (std::size_t v = begin; v < end; ++v) {
        budget_checkpoint(budget_);
        emit(v, algorithm_.run(extract_view(instance_, v, radius_)), verifier);
      }
    }
    return verifier.verdict();
  }

 private:
  void emit(std::size_t v, Label label, PairwiseChunkVerifier& verifier) const {
    verifier.push(instance_.inputs[v], label);
    if (out_ != nullptr) out_[v] = label;
  }

  /// The chunk-sweep fast path: build one chunk-plus-halo window in
  /// storage order and let the algorithm label the whole span in a single
  /// run_span call (layout amortized across the chunk). Cycle sub-spans
  /// are capped so a window never covers the full cycle (span windows are
  /// arcs, not rotations; a radius whose views cover the whole cycle gets
  /// cap 0 and the per-node path); the first run_span call happens before
  /// anything is pushed into the verifier, so a false return falls back
  /// cleanly to the node-by-node path. Each labeled sub-span is charged to
  /// the budget once, with one tick per node, before its labels are
  /// emitted.
  bool try_span(std::size_t begin, std::size_t end,
                PairwiseChunkVerifier& verifier) const {
    const std::size_t n = instance_.size();
    const bool cycle = instance_.cycle();
    const std::size_t cap =
        cycle ? (n > 2 * radius_ + 1 ? n - 2 * radius_ - 1 : 0) : end - begin;
    if (cap == 0) return false;
    View window;
    window.n = n;
    window.topology = instance_.topology;
    std::vector<Label> labels;
    for (std::size_t s = begin; s < end;) {
      const std::size_t e = std::min(end, s + cap);
      std::size_t wlo = 0;
      std::size_t wlen = 0;
      std::size_t offset = 0;
      if (cycle) {
        wlo = (s + n - radius_) % n;
        wlen = (e - s) + 2 * radius_;
        offset = radius_;
      } else {
        wlo = s >= radius_ ? s - radius_ : 0;
        const std::size_t whi = std::min(n - 1, e - 1 + radius_);  // inclusive
        wlen = whi - wlo + 1;
        offset = s - wlo;
        window.sees_left_end = wlo == 0;
        window.sees_right_end = whi == n - 1;
      }
      // [wlo, wlo + wlen), wrapping past n on cycles: two contiguous copies.
      const std::size_t head = std::min(wlen, n - wlo);
      copy_wrapped(instance_.inputs, wlo, head, wlen, window.inputs);
      copy_wrapped(instance_.ids, wlo, head, wlen, window.ids);
      window.center = offset;
      labels.resize(e - s);
      if (!algorithm_.run_span(window, offset, offset + (e - s), labels.data())) {
        if (s == begin) return false;
        throw std::logic_error("simulate: run_span support must be uniform");
      }
      charge(budget_, e - s);
      for (std::size_t v = s; v < e; ++v) emit(v, labels[v - s], verifier);
      s = e;
    }
    return true;
  }

  template <class T>
  static void copy_wrapped(const std::vector<T>& from, std::size_t lo, std::size_t head,
                           std::size_t len, std::vector<T>& to) {
    to.resize(len);
    std::copy_n(from.begin() + static_cast<std::ptrdiff_t>(lo), head, to.begin());
    std::copy_n(from.begin(), len - head, to.begin() + static_cast<std::ptrdiff_t>(head));
  }

  const LocalAlgorithm& algorithm_;
  const PairwiseProblem& problem_;
  const Instance& instance_;
  std::size_t radius_;
  Label* out_;
  const ExecutionBudget* budget_;
};

/// The one canonical reading of an instance-covering word. Every node of a
/// full-view instance sees the same content, each in its own presentation
/// (a rotation, on undirected cycles possibly reversed), so all of them
/// must derive the same word: cycles rotate so the minimum ID comes first
/// and, undirected, read in the direction whose next ID after that anchor
/// is smaller; paths are presented in global order (the ends are
/// distinguishable), so the input word is solved in place. Both rules are
/// content-determined, so any presentation of the instance yields the
/// same solution; at() maps a presentation position back to its label.
/// The solve runs on `pool` when the word is long enough to be chunked
/// (PathDp::complete), with `budget` checked between its phases.
class CanonicalSolution {
 public:
  CanonicalSolution(const PairwiseProblem& problem, Topology topology,
                    const Word& inputs, const std::vector<NodeId>& ids,
                    ThreadPool* pool = nullptr, const ExecutionBudget* budget = nullptr)
      : n_(inputs.size()), cycle_(is_cycle(topology)) {
    PathDp dp(problem);
    bool solved = false;
    if (cycle_) {
      anchor_ = static_cast<std::size_t>(std::min_element(ids.begin(), ids.end()) -
                                         ids.begin());
      if (!is_directed(topology) && n_ >= 3) {
        forward_ = ids[(anchor_ + 1) % n_] < ids[(anchor_ + n_ - 1) % n_];
      }
      Word canonical(n_);
      if (forward_) {
        std::rotate_copy(inputs.begin(), inputs.begin() + static_cast<std::ptrdiff_t>(anchor_),
                         inputs.end(), canonical.begin());
      } else {
        std::rotate_copy(inputs.rbegin(),
                         inputs.rbegin() + static_cast<std::ptrdiff_t>(n_ - 1 - anchor_),
                         inputs.rend(), canonical.begin());
      }
      solved = dp.complete(canonical, {}, solution_, pool, budget);
    } else {
      solved = dp.complete(inputs, {}, solution_, pool, budget);
    }
    if (!solved) throw std::runtime_error("solve_full_view: instance has no valid labeling");
  }

  /// The label of the node at position `pos` of the presentation: its
  /// index in the canonical word inverts the rotation (and the direction).
  Label at(std::size_t pos) const {
    if (!cycle_) return solution_[pos];
    if (forward_) return solution_[pos >= anchor_ ? pos - anchor_ : pos + n_ - anchor_];
    return solution_[pos <= anchor_ ? anchor_ - pos : anchor_ + n_ - pos];
  }

 private:
  std::size_t n_;
  bool cycle_;
  std::size_t anchor_ = 0;
  bool forward_ = true;
  Word solution_;
};

/// Memoized full-view regime: solve the canonical word once (chunked on
/// the run's pool when it is long), then read and verify every node's
/// label off the shared solution in the plan's chunks on the same pool.
/// Labels stream through the chunk verifiers, so keep_outputs = false
/// still never materializes the output Word.
SimulationResult simulate_full_view_memo(const PairwiseProblem& fvp,
                                         const PairwiseProblem& problem,
                                         const Instance& instance, std::size_t radius,
                                         const SimulationOptions& options,
                                         const EnginePlan& plan, ThreadPool* pool) {
  const std::size_t n = instance.size();
  const CanonicalSolution solution(fvp, instance.topology, instance.inputs, instance.ids,
                                   pool, options.budget);
  SimulationResult result;
  result.radius = radius;
  result.threads_used = plan.threads;
  result.chunks = plan.num_chunks;
  if (options.keep_outputs) result.outputs.resize(n);
  Label* out = options.keep_outputs ? result.outputs.data() : nullptr;
  const auto read_chunk = [&](std::size_t begin, std::size_t end) {
    charge(options.budget, end - begin);
    PairwiseChunkVerifier verifier(problem, n, begin, end);
    for (std::size_t v = begin; v < end; ++v) {
      const Label label = solution.at(v);
      verifier.push(instance.inputs[v], label);
      if (out != nullptr) out[v] = label;
    }
    return verifier.verdict();
  };
  result.verdict = finish_chunked_verify(problem, run_chunks(n, plan, pool, read_chunk));
  return result;
}

}  // namespace

SimulationResult simulate(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                          const Instance& instance, const SimulationOptions& options) {
  // One pool per call, for validation, the full-view solve and the chunks;
  // a one-worker plan runs everything inline.
  const std::size_t n = instance.size();
  const EnginePlan plan = plan_run(n, options);
  std::optional<ThreadPool> workers;
  if (plan.threads > 1) workers.emplace(plan.threads);
  ThreadPool* pool = workers ? &*workers : nullptr;
  instance.validate(pool);  // throws on an empty instance
  const std::size_t radius = algorithm.radius(n);

  const bool cycle = instance.cycle();
  const bool full_regime = cycle ? 2 * radius + 1 >= n : radius >= n - 1;
  const PairwiseProblem* fvp = algorithm.full_view_problem();
  if (fvp != nullptr && options.full_view_memo && full_regime) {
    return simulate_full_view_memo(*fvp, problem, instance, radius, options, plan, pool);
  }

  SimulationResult result;
  result.radius = radius;
  result.threads_used = plan.threads;
  result.chunks = plan.num_chunks;
  if (options.keep_outputs) result.outputs.resize(n);
  Label* out = options.keep_outputs ? result.outputs.data() : nullptr;
  const ChunkRunner runner(algorithm, problem, instance, radius, out,
                           options.budget);
  const auto run_chunk = [&runner](std::size_t begin, std::size_t end) {
    return runner.run(begin, end);
  };
  result.verdict = finish_chunked_verify(problem, run_chunks(n, plan, pool, run_chunk));
  return result;
}

Label solve_full_view(const PairwiseProblem& problem, const View& view) {
  if (is_cycle(view.topology)) {
    if (view.size() != view.n) {
      throw std::logic_error("solve_full_view: radius did not cover the whole cycle");
    }
  } else if (!view.sees_left_end || !view.sees_right_end) {
    throw std::logic_error("solve_full_view: radius did not cover the whole path");
  }
  return CanonicalSolution(problem, view.topology, view.inputs, view.ids).at(view.center);
}

Label GatherAllAlgorithm::run(const View& view) const {
  return solve_full_view(*problem_, view);
}

}  // namespace lclpath
