#include "local/simulator.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

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

/// Per-chunk execution: run nodes [begin, end) through `algorithm` with a
/// reusable sliding-window View and stream every (input, output) pair into
/// a chunk verifier. Outputs are written into `out` (disjoint ranges per
/// chunk) when non-null.
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
    const std::size_t n = instance_.size();
    PairwiseChunkVerifier verifier(problem_, n, begin, end);
    const bool cycle = instance_.cycle();
    if (cycle && 2 * radius_ + 1 >= n) {
      run_full_rotation(begin, end, verifier);
    } else if (!try_span(begin, end, verifier)) {
      if (cycle) {
        run_cycle_window(begin, end, verifier);
      } else {
        run_path_window(begin, end, verifier);
      }
    }
    return verifier.verdict();
  }

 private:
  // One checkpoint per simulated node: every execution path (span sweep,
  // rotation, sliding windows) funnels through emit, so deadlines and
  // cancellation interrupt chunk workers wherever the work happens.
  void emit(std::size_t v, Label label, PairwiseChunkVerifier& verifier) const {
    budget_checkpoint(budget_);
    verifier.push(instance_.inputs[v], label);
    if (out_ != nullptr) out_[v] = label;
  }

  /// Run the view in its canonical undirected presentation: reverse in
  /// place when the reversed ID sequence is smaller, and flip the center
  /// for path windows (cycle windows are center-symmetric). The buffer is
  /// restored before returning, so the sliding advance stays in storage
  /// order.
  Label run_canonicalized(View& view, bool flip_center) const {
    if (!is_directed(instance_.topology) && reversed_ids_smaller(view.ids)) {
      std::reverse(view.inputs.begin(), view.inputs.end());
      std::reverse(view.ids.begin(), view.ids.end());
      const std::size_t center = view.center;
      if (flip_center) view.center = view.size() - 1 - center;
      const Label label = algorithm_.run(view);
      std::reverse(view.inputs.begin(), view.inputs.end());
      std::reverse(view.ids.begin(), view.ids.end());
      view.center = center;
      return label;
    }
    return algorithm_.run(view);
  }

  /// The chunk-sweep fast path: build one chunk-plus-halo window in
  /// storage order and let the algorithm label the whole span in a single
  /// run_span call (layout amortized across the chunk). Cycle sub-spans
  /// are capped so a window never covers the full cycle (span windows are
  /// arcs, not rotations); the first run_span call happens before anything
  /// is pushed into the verifier, so a false return falls back cleanly to
  /// the node-by-node path.
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
      window.inputs.resize(wlen);
      window.ids.resize(wlen);
      for (std::size_t k = 0; k < wlen; ++k) {
        const std::size_t idx = cycle ? (wlo + k) % n : wlo + k;
        window.inputs[k] = instance_.inputs[idx];
        window.ids[k] = instance_.ids[idx];
      }
      window.center = offset;
      labels.resize(e - s);
      if (!algorithm_.run_span(window, offset, offset + (e - s), labels.data())) {
        if (s == begin) return false;
        throw std::logic_error("simulate: run_span support must be uniform");
      }
      for (std::size_t v = s; v < e; ++v) emit(v, labels[v - s], verifier);
      s = e;
    }
    return true;
  }

  /// Full-view cycle regime without memoization (the honest gather
  /// baseline): every node's view is its own whole-cycle rotation, so
  /// there is nothing to slide — build it per node.
  void run_full_rotation(std::size_t begin, std::size_t end,
                         PairwiseChunkVerifier& verifier) const {
    for (std::size_t v = begin; v < end; ++v) {
      const View view = extract_view(instance_, v, radius_);
      emit(v, algorithm_.run(view), verifier);
    }
  }

  /// Structured cycle regime (2r + 1 < n): fixed-length window, center
  /// pinned at r. Advance = pop front, push (v + r) mod n.
  void run_cycle_window(std::size_t begin, std::size_t end,
                        PairwiseChunkVerifier& verifier) const {
    const std::size_t n = instance_.size();
    const std::size_t len = 2 * radius_ + 1;
    View view;
    view.n = n;
    view.topology = instance_.topology;
    view.center = radius_;
    view.inputs.reserve(len);
    view.ids.reserve(len);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t idx = (begin + n + k - radius_) % n;
      view.inputs.push_back(instance_.inputs[idx]);
      view.ids.push_back(instance_.ids[idx]);
    }
    for (std::size_t v = begin; v < end; ++v) {
      if (v > begin) {
        view.inputs.erase(view.inputs.begin());
        view.ids.erase(view.ids.begin());
        const std::size_t idx = (v + radius_) % n;
        view.inputs.push_back(instance_.inputs[idx]);
        view.ids.push_back(instance_.ids[idx]);
      }
      emit(v, run_canonicalized(view, /*flip_center=*/false), verifier);
    }
  }

  /// Path regime: variable-length window clipped at the ends. Pops start
  /// once v > r, pushes stop once v + r passes the last node; covers the
  /// whole-path window (r >= n - 1) as the degenerate no-op slide.
  void run_path_window(std::size_t begin, std::size_t end,
                       PairwiseChunkVerifier& verifier) const {
    const std::size_t n = instance_.size();
    View view;
    view.n = n;
    view.topology = instance_.topology;
    const std::size_t cap = std::min(n, 2 * radius_ + 1);
    view.inputs.reserve(cap);
    view.ids.reserve(cap);
    const std::size_t lo = begin >= radius_ ? begin - radius_ : 0;
    const std::size_t hi = std::min(n - 1, begin + radius_);
    for (std::size_t idx = lo; idx <= hi; ++idx) {
      view.inputs.push_back(instance_.inputs[idx]);
      view.ids.push_back(instance_.ids[idx]);
    }
    for (std::size_t v = begin; v < end; ++v) {
      if (v > begin) {
        if (v > radius_) {
          view.inputs.erase(view.inputs.begin());
          view.ids.erase(view.ids.begin());
        }
        if (v + radius_ <= n - 1) {
          view.inputs.push_back(instance_.inputs[v + radius_]);
          view.ids.push_back(instance_.ids[v + radius_]);
        }
      }
      view.center = std::min(v, radius_);
      view.sees_left_end = v <= radius_;
      view.sees_right_end = v + radius_ >= n - 1;
      const bool canonicalize = !view.sees_left_end && !view.sees_right_end;
      Label label;
      if (canonicalize) {
        label = run_canonicalized(view, /*flip_center=*/true);
      } else {
        label = algorithm_.run(view);
      }
      emit(v, label, verifier);
    }
  }

  const LocalAlgorithm& algorithm_;
  const PairwiseProblem& problem_;
  const Instance& instance_;
  std::size_t radius_;
  Label* out_;
  const ExecutionBudget* budget_;
};

/// Memoized full-view regime: derive the content-determined canonical word
/// once (exactly as solve_full_view does per node), solve it once, and
/// read every node's label off the shared solution. Streams the labels
/// through one chunk verifier so keep_outputs = false still never
/// materializes the Word.
SimulationResult simulate_full_view_memo(const PairwiseProblem& fvp,
                                         const PairwiseProblem& problem,
                                         const Instance& instance, std::size_t radius,
                                         bool keep_outputs,
                                         const ExecutionBudget* budget) {
  const std::size_t n = instance.size();
  SimulationResult result;
  result.radius = radius;
  std::optional<Word> solution;
  // my_index(v) = position of node v in the canonical word.
  std::size_t anchor = 0;
  bool forward = true;
  if (instance.cycle()) {
    anchor = static_cast<std::size_t>(
        std::min_element(instance.ids.begin(), instance.ids.end()) -
        instance.ids.begin());
    if (!is_directed(instance.topology) && n >= 3) {
      forward = instance.ids[(anchor + 1) % n] < instance.ids[(anchor + n - 1) % n];
    }
    Word canonical(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = forward ? (anchor + k) % n : (anchor + n - k) % n;
      canonical[k] = instance.inputs[idx];
    }
    solution = solve_by_dp(fvp, canonical);
  } else {
    // Path windows seeing both ends are presented in global order, so the
    // instance word itself is the canonical word.
    solution = solve_by_dp(fvp, instance.inputs);
  }
  if (!solution) {
    throw std::runtime_error("solve_full_view: instance has no valid labeling");
  }
  if (keep_outputs) result.outputs.resize(n);
  PairwiseChunkVerifier verifier(problem, n, 0, n);
  for (std::size_t v = 0; v < n; ++v) {
    budget_checkpoint(budget);
    std::size_t k = v;
    if (instance.cycle()) {
      k = forward ? (v + n - anchor) % n : (anchor + n - v) % n;
    }
    const Label label = (*solution)[k];
    verifier.push(instance.inputs[v], label);
    if (keep_outputs) result.outputs[v] = label;
  }
  result.verdict = finish_chunked_verify(problem, {verifier.verdict()});
  return result;
}

}  // namespace

SimulationResult simulate(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                          const Instance& instance, const SimulationOptions& options) {
  instance.validate();
  const std::size_t n = instance.size();
  const std::size_t radius = algorithm.radius(n);
  if (n == 0) {
    SimulationResult result;
    result.radius = radius;
    result.verdict = verify_pairwise(problem, instance.inputs, result.outputs);
    return result;
  }

  const bool cycle = instance.cycle();
  const bool full_regime = cycle ? 2 * radius + 1 >= n : radius >= n - 1;
  const PairwiseProblem* fvp = algorithm.full_view_problem();
  if (fvp != nullptr && options.full_view_memo && full_regime) {
    return simulate_full_view_memo(*fvp, problem, instance, radius,
                                   options.keep_outputs, options.budget);
  }

  const EnginePlan plan = plan_run(n, options);
  SimulationResult result;
  result.radius = radius;
  result.threads_used = plan.threads;
  result.chunks = plan.num_chunks;
  if (options.keep_outputs) result.outputs.resize(n);
  Label* out = options.keep_outputs ? result.outputs.data() : nullptr;
  const ChunkRunner runner(algorithm, problem, instance, radius, out,
                           options.budget);

  std::vector<ChunkVerdict> verdicts;
  verdicts.reserve(plan.num_chunks);
  if (plan.threads <= 1) {
    for (std::size_t begin = 0; begin < n; begin += plan.chunk) {
      verdicts.push_back(runner.run(begin, std::min(n, begin + plan.chunk)));
    }
  } else {
    ThreadPool pool(plan.threads);
    std::vector<std::future<ChunkVerdict>> futures;
    futures.reserve(plan.num_chunks);
    for (std::size_t begin = 0; begin < n; begin += plan.chunk) {
      const std::size_t end = std::min(n, begin + plan.chunk);
      futures.push_back(pool.submit([&runner, begin, end] {
        return runner.run(begin, end);
      }));
    }
    // Collect every chunk before rethrowing so the pool drains cleanly and
    // the reported exception is the earliest chunk's (matching the serial
    // reference, which throws at the first failing node).
    std::exception_ptr first_error;
    for (auto& future : futures) {
      try {
        verdicts.push_back(future.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
  result.verdict = finish_chunked_verify(problem, verdicts);
  return result;
}

SimulationResult simulate(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                          const Instance& instance) {
  return simulate(algorithm, problem, instance, SimulationOptions{});
}

Label solve_full_view(const PairwiseProblem& problem, const View& view) {
  if (is_cycle(view.topology)) {
    if (view.size() != view.n) {
      throw std::logic_error("solve_full_view: radius did not cover the whole cycle");
    }
    // All nodes must agree on one labeling although each sees a different
    // rotation (and, undirected, a possibly reversed one): canonicalize by
    // rotating so the minimum ID comes first, and on undirected cycles
    // additionally read in the direction whose next ID after the anchor is
    // smaller. Both rules are content-determined, so every node solves the
    // same word.
    const std::size_t n = view.n;
    const std::size_t anchor = static_cast<std::size_t>(
        std::min_element(view.ids.begin(), view.ids.end()) - view.ids.begin());
    bool forward = true;
    if (!is_directed(view.topology) && n >= 3) {
      forward = view.ids[(anchor + 1) % n] < view.ids[(anchor + n - 1) % n];
    }
    Word canonical(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = forward ? (anchor + k) % n : (anchor + n - k) % n;
      canonical[k] = view.inputs[idx];
    }
    auto solution = solve_by_dp(problem, canonical);
    if (!solution) {
      throw std::runtime_error("solve_full_view: instance has no valid labeling");
    }
    // The observing node sits at presentation position center; its index
    // in the canonical word inverts the rotation (and the direction).
    const std::size_t my_pos = forward ? (n - anchor + view.center) % n
                                       : (anchor + n - view.center) % n;
    return (*solution)[my_pos];
  }
  if (!view.sees_left_end || !view.sees_right_end) {
    throw std::logic_error("solve_full_view: radius did not cover the whole path");
  }
  // Paths present end-anchored windows in global order (both for directed
  // topologies and for undirected ones, where the ends are
  // distinguishable), so the presentation is already canonical.
  auto solution = solve_by_dp(problem, view.inputs);
  if (!solution) {
    throw std::runtime_error("solve_full_view: instance has no valid labeling");
  }
  return (*solution)[view.center];
}

Label GatherAllAlgorithm::run(const View& view) const {
  return solve_full_view(*problem_, view);
}

}  // namespace lclpath
