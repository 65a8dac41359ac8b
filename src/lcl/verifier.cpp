#include "lcl/verifier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "core/cancel.hpp"
#include "core/thread_pool.hpp"

namespace lclpath {

namespace {

// Failure-string builders shared by the whole-word verifier and the
// streaming chunk verifier, so the two report byte-identical reasons.
std::string node_fail(const PairwiseProblem& p, Label in, Label out, std::size_t v) {
  return "node " + std::to_string(v) + ": (" + p.inputs().name(in) + ", " +
         p.outputs().name(out) + ") not in C_node";
}

std::string edge_fail(const PairwiseProblem& p, Label out_u, Label out_v,
                      std::size_t u, std::size_t v) {
  return "edge " + std::to_string(u) + "->" + std::to_string(v) + ": (" +
         p.outputs().name(out_u) + ", " + p.outputs().name(out_v) + ") not in C_edge";
}

std::string last_fail(const PairwiseProblem& p, Label out) {
  return "last node output '" + p.outputs().name(out) +
         "' not allowed at a path end";
}

void require_symmetric_if_undirected(const PairwiseProblem& problem) {
  if (!is_directed(problem.topology()) && !problem.is_orientation_symmetric()) {
    throw std::logic_error(
        "verify_pairwise: undirected topology requires an orientation-symmetric edge "
        "constraint");
  }
}

}  // namespace

VerifyResult verify_pairwise(const PairwiseProblem& problem, const Word& inputs,
                             const Word& outputs) {
  if (inputs.size() != outputs.size() || inputs.empty()) {
    return VerifyResult::failure(0, "input/output size mismatch or empty instance");
  }
  require_symmetric_if_undirected(problem);
  const std::size_t n = inputs.size();
  const bool path = !is_cycle(problem.topology());
  for (std::size_t v = 0; v < n; ++v) {
    const bool ok = (path && v == 0) ? problem.node_first_ok(inputs[v], outputs[v])
                                     : problem.node_ok(inputs[v], outputs[v]);
    if (!ok) {
      return VerifyResult::failure(v, node_fail(problem, inputs[v], outputs[v], v));
    }
  }
  if (path && !problem.last_ok(outputs[n - 1])) {
    return VerifyResult::failure(n - 1, last_fail(problem, outputs[n - 1]));
  }
  for (std::size_t v = 1; v < n; ++v) {
    if (!problem.edge_ok(outputs[v - 1], outputs[v])) {
      return VerifyResult::failure(v, edge_fail(problem, outputs[v - 1], outputs[v],
                                                v - 1, v));
    }
  }
  if (is_cycle(problem.topology())) {
    if (n == 1) {
      // Degenerate self-loop cycle: the wrap edge is (v, v).
      if (!problem.edge_ok(outputs[0], outputs[0])) {
        return VerifyResult::failure(0, edge_fail(problem, outputs[0], outputs[0], 0, 0));
      }
    } else if (!problem.edge_ok(outputs[n - 1], outputs[0])) {
      return VerifyResult::failure(0, edge_fail(problem, outputs[n - 1], outputs[0],
                                                n - 1, 0));
    }
  }
  return VerifyResult::success();
}

PairwiseChunkVerifier::PairwiseChunkVerifier(const PairwiseProblem& problem,
                                             std::size_t n, std::size_t begin,
                                             std::size_t end)
    : problem_(problem),
      n_(n),
      begin_(begin),
      end_(end),
      path_(!is_cycle(problem.topology())) {
  require_symmetric_if_undirected(problem);
  if (begin >= end || end > n) {
    throw std::logic_error("PairwiseChunkVerifier: empty or out-of-range chunk");
  }
}

void PairwiseChunkVerifier::push(Label input, Label output) {
  const std::size_t v = begin_ + count_;
  assert(v < end_);
  // Phase 0: per-node check. Node failures arrive in ascending order, so the
  // first one seen is the chunk's phase-0 minimum.
  if (!node_failed_) {
    const bool ok = (path_ && v == 0) ? problem_.node_first_ok(input, output)
                                      : problem_.node_ok(input, output);
    if (!ok) {
      node_failed_ = true;
      PairwiseFailure f{0, v, node_fail(problem_, input, output, v)};
      if (!best_ || f < *best_) best_ = std::move(f);
    }
  }
  // Phase 1: path-end check, only when this chunk owns node n-1.
  if (path_ && v == n_ - 1 && !problem_.last_ok(output)) {
    PairwiseFailure f{1, v, last_fail(problem_, output)};
    if (!best_ || f < *best_) best_ = std::move(f);
  }
  // Phase 2: the edge internal to the chunk arriving at v.
  if (count_ > 0 && !edge_failed_ && !problem_.edge_ok(prev_output_, output)) {
    edge_failed_ = true;
    PairwiseFailure f{2, v, edge_fail(problem_, prev_output_, output, v - 1, v)};
    if (!best_ || f < *best_) best_ = std::move(f);
  }
  if (count_ == 0) first_output_ = output;
  prev_output_ = output;
  ++count_;
}

ChunkVerdict PairwiseChunkVerifier::verdict() const {
  assert(count_ == end_ - begin_);
  return ChunkVerdict{begin_, end_, first_output_, prev_output_, best_};
}

VerifyResult finish_chunked_verify(const PairwiseProblem& problem,
                                   const std::vector<ChunkVerdict>& verdicts) {
  if (verdicts.empty() || verdicts.front().begin != 0) {
    throw std::logic_error("finish_chunked_verify: chunks do not cover the instance");
  }
  std::optional<PairwiseFailure> best;
  auto consider = [&best](PairwiseFailure f) {
    if (!best || f < *best) best = std::move(f);
  };
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const ChunkVerdict& c = verdicts[i];
    if (i > 0) {
      const ChunkVerdict& prev = verdicts[i - 1];
      if (c.begin != prev.end) {
        throw std::logic_error("finish_chunked_verify: non-contiguous chunks");
      }
      // Phase 2 seam edge (prev's last node -> this chunk's first node).
      if (!problem.edge_ok(prev.last_output, c.first_output)) {
        consider({2, c.begin,
                  edge_fail(problem, prev.last_output, c.first_output, c.begin - 1,
                            c.begin)});
      }
    }
    if (c.failure) consider(*c.failure);
  }
  const std::size_t n = verdicts.back().end;
  if (is_cycle(problem.topology())) {
    // Phase 3 wrap edge; for n == 1 the wrap degenerates to a self-loop.
    const Label tail = verdicts.back().last_output;
    const Label head = verdicts.front().first_output;
    if (!problem.edge_ok(tail, head)) {
      consider({3, 0, edge_fail(problem, tail, head, n == 1 ? 0 : n - 1, 0)});
    }
  }
  if (!best) return VerifyResult::success();
  return VerifyResult::failure(best->at, std::move(best->reason));
}

bool locally_consistent_at(const PairwiseProblem& problem, const Word& inputs,
                           const Word& outputs, std::size_t v, bool cycle) {
  assert(v < inputs.size() && inputs.size() == outputs.size());
  const bool first_of_path = !cycle && v == 0;
  const bool node_ok = first_of_path ? problem.node_first_ok(inputs[v], outputs[v])
                                     : problem.node_ok(inputs[v], outputs[v]);
  if (!node_ok) return false;
  if (v > 0) return problem.edge_ok(outputs[v - 1], outputs[v]);
  if (cycle) return problem.edge_ok(outputs[outputs.size() - 1], outputs[0]);
  return true;  // first node of a path has no predecessor check
}

VerifyResult verify_general(const GeneralProblem& problem, const Word& inputs,
                            const Word& outputs) {
  if (inputs.size() != outputs.size() || inputs.empty()) {
    return VerifyResult::failure(0, "input/output size mismatch or empty instance");
  }
  const std::size_t n = inputs.size();
  const std::size_t r = problem.radius();
  const bool cycle = is_cycle(problem.topology());
  for (std::size_t v = 0; v < n; ++v) {
    WindowConstraint window;
    if (cycle) {
      // Full window with wraparound. (For tiny cycles the window may see a
      // node more than once; that matches the universal-cover view the
      // LOCAL model gives an algorithm.)
      window.center = r;
      for (std::size_t k = 0; k < 2 * r + 1; ++k) {
        const std::size_t idx = (v + n + k - r) % n;
        window.inputs.push_back(inputs[idx]);
        window.outputs.push_back(outputs[idx]);
      }
    } else {
      const std::size_t lo = v >= r ? v - r : 0;
      const std::size_t hi = std::min(n - 1, v + r);
      window.center = v - lo;
      for (std::size_t idx = lo; idx <= hi; ++idx) {
        window.inputs.push_back(inputs[idx]);
        window.outputs.push_back(outputs[idx]);
      }
    }
    if (!problem.accepts(window)) {
      return VerifyResult::failure(v, "node " + std::to_string(v) +
                                          ": radius-" + std::to_string(r) +
                                          " window not acceptable");
    }
  }
  return VerifyResult::success();
}

/// The dynamic program behind solve_by_dp, complete_by_dp and every
/// PathDp completion, in two kernels that return the same labeling.
///
/// tab_ holds the word-mask form: a label set is a mask of W = ceil(beta /
/// 64) words (label b at bit b % 64 of word b / 64; run<kW> fixes W at
/// compile time, 1 covering beta <= 64, and kW == 0 reads it from w_).
/// Its rows, W words each, are the successor rows (succ[a] = {b : a -> b
/// allowed}), the predecessor rows (pred[b] = {a : a -> b allowed}), the
/// C_node row of every input, the first-node rule's row of every input
/// (paths with such a rule only), the last mask and node 0's candidates
/// (the one row a run rewrites). For beta <= 8 a set also fits one byte,
/// and the byte kernel reads its steps off pred_image_ and next_label_.
///
/// Both kernels make the same passes. The candidate pass fills every
/// node's set and stops at the first bad input label (which throws) or
/// empty set (infeasible). The backward pass narrows the sets in place,
/// reach[v] &= image(pred, reach[v + 1]), to the labels that extend to a
/// valid suffix; on a cycle with first label f the last node is first
/// masked with pred[f]. The greedy read then takes out[v] = the lowest label
/// of reach[v] & succ[out[v - 1]]. That is the lexicographically smallest
/// labeling: out[v - 1] extends a valid prefix, so every successor of it
/// in reach[v] does too, and no forward pass is needed to say which labels
/// are reachable from the start.
PathDp::PathDp(const PairwiseProblem& problem)
    : problem_(&problem),
      w_(std::max<std::size_t>(1, (problem.num_outputs() + 63) / 64)),
      cycle_(is_cycle(problem.topology())),
      first_rule_(!cycle_ && problem.has_first_constraint()) {
  const std::size_t W = w_;
  const std::size_t beta = problem.num_outputs();
  const std::size_t alpha = problem.num_inputs();
  pred_at_ = beta * W;
  cand_at_ = 2 * beta * W;
  first_at_ = first_rule_ ? cand_at_ + alpha * W : cand_at_;
  last_at_ = first_at_ + alpha * W;
  node0_at_ = last_at_ + W;
  tab_.assign(node0_at_ + W, 0);
  const auto set_bit = [this, W](std::size_t row_at, std::size_t row, std::size_t bit) {
    tab_[row_at + row * W + bit / 64] |= std::uint64_t{1} << (bit % 64);
  };
  const BitMatrix& edge = problem.edge_matrix();
  for (std::size_t a = 0; a < beta; ++a) {
    for (std::size_t b = 0; b < beta; ++b) {
      if (!edge.get(a, b)) continue;
      set_bit(0, a, b);
      set_bit(pred_at_, b, a);
    }
  }
  const auto copy_row = [&](std::size_t row_at, std::size_t row, const BitVector& labels) {
    for (std::size_t b = labels.first_set(); b < labels.dim(); b = labels.next_set(b + 1)) {
      set_bit(row_at, row, b);
    }
  };
  for (Label in = 0; in < alpha; ++in) {
    copy_row(cand_at_, in, problem.outputs_for(in));
    if (first_rule_) copy_row(first_at_, in, problem.outputs_for_first(in));
  }
  if (!cycle_ && problem.last_mask().dim() != 0) {
    copy_row(last_at_, 0, problem.last_mask());
  } else {
    for (std::size_t b = 0; b < beta; ++b) set_bit(last_at_, 0, b);
  }
}

bool PathDp::complete(std::span<const Label> inputs,
                      std::span<const std::optional<Label>> pins, Word& out,
                      ThreadPool* pool, const ExecutionBudget* budget) {
  if (problem_->num_outputs() <= 8 && inputs.size() >= kChunkedMinNodes) {
    return complete_chunked(inputs, pins, out, pool != nullptr ? pool->size() : 1, pool,
                            budget);
  }
  if (inputs.empty() || (!pins.empty() && pins.size() != inputs.size())) return false;
  return w_ == 1 ? run<1>(inputs, pins, out) : run<0>(inputs, pins, out);
}

bool PathDp::complete_chunked(std::span<const Label> inputs,
                              std::span<const std::optional<Label>> pins, Word& out,
                              std::size_t chunks, ThreadPool* pool,
                              const ExecutionBudget* budget) {
  if (inputs.empty() || (!pins.empty() && pins.size() != inputs.size())) return false;
  if (problem_->num_outputs() > 8) {
    return w_ == 1 ? run<1>(inputs, pins, out) : run<0>(inputs, pins, out);
  }
  return run_bytes(inputs, pins, out, std::max<std::size_t>(chunks, 1), pool, budget);
}

void PathDp::check_pins(std::span<const std::optional<Label>> pins) const {
  for (const std::optional<Label>& pin : pins) {
    if (pin.has_value() && *pin >= problem_->num_outputs()) {
      throw std::out_of_range("complete_by_dp: pinned label out of range");
    }
  }
}

void PathDp::throw_bad_input(std::span<const Label> inputs, std::size_t v) const {
  // Out of range: the accessor throws std::out_of_range with its message.
  (void)(!cycle_ && v == 0 ? problem_->outputs_for_first(inputs[v])
                           : problem_->outputs_for(inputs[v]));
  throw std::out_of_range("PairwiseProblem::outputs_for: bad input label");
}

template <std::size_t kW>
bool PathDp::run(std::span<const Label> inputs, std::span<const std::optional<Label>> pins,
                 Word& out) {
  const std::size_t W = kW != 0 ? kW : w_;
  const std::size_t n = inputs.size();
  const std::size_t beta = problem_->num_outputs();
  const std::size_t alpha = problem_->num_inputs();
  const bool cycle = cycle_;
  check_pins(pins);
  const std::uint64_t* succ = tab_.data();
  const std::uint64_t* pred = tab_.data() + pred_at_;
  const std::uint64_t* last_mask = tab_.data() + last_at_;
  std::uint64_t* node0 = tab_.data() + node0_at_;

  const auto has = [](const std::uint64_t* mask, std::size_t b) {
    return (mask[b / 64] >> (b % 64) & 1) != 0;
  };
  const auto any = [W](const std::uint64_t* mask) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < W; ++i) bits |= mask[i];
    return bits != 0;
  };
  // dst = the candidates at v: C_node (or the first-node rule), the last
  // mask at a path's last node, and the pin.
  const auto candidates = [&](std::size_t v, std::uint64_t* dst) {
    const std::uint64_t* row = tab_.data() + (v == 0 ? first_at_ : cand_at_) + inputs[v] * W;
    for (std::size_t i = 0; i < W; ++i) dst[i] = row[i];
    if (!cycle && v == n - 1) {
      for (std::size_t i = 0; i < W; ++i) dst[i] &= last_mask[i];
    }
    if (!pins.empty() && pins[v].has_value()) {
      const Label pin = *pins[v];
      for (std::size_t i = 0; i < W; ++i) {
        dst[i] &= i == pin / 64 ? std::uint64_t{1} << (pin % 64) : 0;
      }
    }
  };
  // Word i of the union of rows[a] over the labels a in `set`.
  const auto image_word = [W](const std::uint64_t* rows, const std::uint64_t* set,
                              std::size_t i) {
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < W; ++j) {
      for (std::uint64_t m = set[j]; m != 0; m &= m - 1) {
        bits |= rows[(j * 64 + static_cast<std::size_t>(std::countr_zero(m))) * W + i];
      }
    }
    return bits;
  };

  out.resize(n);
  if (reach_.size() < n * W) reach_.resize(n * W);
  std::uint64_t* reach = reach_.data();
  for (std::size_t v = 0; v < n; ++v) {
    if (inputs[v] >= alpha) throw_bad_input(inputs, v);
    candidates(v, &reach[v * W]);
    if (!any(&reach[v * W])) return false;
  }
  for (std::size_t i = 0; i < W; ++i) node0[i] = reach[i];

  // The backward pass, in place; on a cycle the last node is first masked
  // with pred[*first]. The first pass finds every node's candidates still
  // in `reach` from the candidate pass; a retry (the next first label on a
  // cycle) reloads them.
  bool fresh = true;
  const auto backward = [&](std::optional<Label> first) {
    const bool reload = !fresh;
    fresh = false;
    std::uint64_t* last = &reach[(n - 1) * W];
    if (reload) candidates(n - 1, last);
    if (first.has_value()) {
      for (std::size_t i = 0; i < W; ++i) last[i] &= pred[*first * W + i];
    }
    for (std::size_t v = n - 1; v > 0; --v) {
      const std::uint64_t* cur = &reach[v * W];
      std::uint64_t* prev = &reach[(v - 1) * W];
      if (reload) candidates(v - 1, prev);
      for (std::size_t i = 0; i < W; ++i) prev[i] &= image_word(pred, cur, i);
    }
  };
  const auto read = [&](Label first) {
    const auto lowest = [W](const std::uint64_t* set, const std::uint64_t* within) {
      for (std::size_t i = 0; i < W; ++i) {
        if (const std::uint64_t m = set[i] & within[i]; m != 0) {
          return static_cast<Label>(i * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        }
      }
      return Label{0};  // unreachable: the backward pass kept a successor
    };
    out[0] = first;
    for (std::size_t v = 1; v < n; ++v) {
      out[v] = lowest(&reach[v * W], succ + out[v - 1] * W);
    }
  };

  if (!cycle) {
    backward(std::nullopt);
    for (Label b = 0; b < beta; ++b) {
      if (has(reach, b)) {
        read(b);
        return true;
      }
    }
    return false;
  }
  // A first label closes when the backward pass conditioned on it keeps it
  // at node 0 (n == 1 included: there the wrap edge is the self-loop).
  for (Label first = 0; first < beta; ++first) {
    if (!has(node0, first)) continue;
    backward(first);
    if (has(reach, first)) {
      read(first);
      return true;
    }
  }
  return false;
}

namespace {

/// The lowest label of a nonempty byte-wide set. An empty set reads as
/// label 7, which every byte table indexes safely; a read lane whose
/// previous label cannot occur makes such reads, and its result is never
/// used.
inline std::uint8_t lowest_label(std::uint8_t set) {
  return static_cast<std::uint8_t>(std::countr_zero(static_cast<unsigned>(set | 0x80u)));
}

/// Union of head[b] over the labels b in `set`.
inline std::uint8_t apply_lanes(const std::uint8_t* head, std::uint8_t set) {
  std::uint8_t image = 0;
  for (unsigned m = set; m != 0; m &= m - 1) image |= head[std::countr_zero(m)];
  return image;
}

/// The labels of a byte-wide set in ascending order; returns how many.
std::size_t labels_of(std::uint8_t set, std::uint8_t* label) {
  std::size_t count = 0;
  for (unsigned m = set; m != 0; m &= m - 1) {
    label[count++] = static_cast<std::uint8_t>(std::countr_zero(m));
  }
  return count;
}

/// Calls f with the lane count rounded up to 1, 2, 4 or 8 as a constant:
/// each lane loop is then unrolled, its lanes held in registers (a runtime
/// count lets the compiler pack them into one vector register that goes
/// through memory on every step). Padding lanes are dead.
template <class F>
void with_lanes(std::size_t lanes, const F& f) {
  if (lanes <= 1) return f(std::integral_constant<std::size_t, 1>{});
  if (lanes <= 2) return f(std::integral_constant<std::size_t, 2>{});
  if (lanes <= 4) return f(std::integral_constant<std::size_t, 4>{});
  f(std::integral_constant<std::size_t, 8>{});
}

/// Backward over sets[begin, end) without writing, one lane per label b of
/// `live`: head[b] = the set at node begin when {b} enters node end - 1.
void backward_lanes(const std::uint8_t* pred_image, const std::uint8_t* sets,
                    std::size_t begin, std::size_t end, std::uint8_t live,
                    std::uint8_t* head) {
  std::uint8_t label[8] = {};
  const std::size_t count = labels_of(live, label);
  with_lanes(count, [&](auto lanes) {
    constexpr std::size_t K = decltype(lanes)::value;
    std::uint8_t lane[K];
    for (std::size_t i = 0; i < K; ++i) {
      lane[i] = i < count ? static_cast<std::uint8_t>(1u << label[i]) : 0;
    }
    for (std::size_t v = end - 1; v > begin; --v) {
      const std::uint8_t set = sets[v];
      for (std::size_t i = 0; i < K; ++i) lane[i] = pred_image[set & lane[i]];
    }
    for (std::size_t i = 0; i < count; ++i) {
      head[label[i]] = static_cast<std::uint8_t>(sets[begin] & lane[i]);
    }
  });
}

/// The greedy read over sets[begin, end) without writing, one lane per
/// label p of `live`: tail[p] = the label at node end - 1 when p precedes
/// node begin. next[256 * a + s] is the lowest label of s & succ[a].
void read_lanes(const std::uint8_t* next, const std::uint8_t* sets, std::size_t begin,
                std::size_t end, std::uint8_t live, std::uint8_t* tail) {
  std::uint8_t label[8] = {};
  const std::size_t count = labels_of(live, label);
  with_lanes(count, [&](auto lanes) {
    constexpr std::size_t K = decltype(lanes)::value;
    std::uint8_t lane[K];
    for (std::size_t i = 0; i < K; ++i) lane[i] = i < count ? label[i] : 0;
    for (std::size_t v = begin; v < end; ++v) {
      const std::uint8_t set = sets[v];
      for (std::size_t i = 0; i < K; ++i) lane[i] = next[256u * lane[i] + set];
    }
    for (std::size_t i = 0; i < count; ++i) tail[label[i]] = lane[i];
  });
}

/// The byte rows the candidate pass reads, and the rules of the special
/// nodes (node 0, a path's last node, pins).
struct ByteCandidates {
  const std::uint64_t* rows;        ///< C_node per input (low byte)
  const std::uint64_t* first_rows;  ///< node 0's rule per input
  const std::optional<Label>* pins;  ///< null when there are none
  std::size_t alpha;
  std::size_t n;
  std::uint8_t last;  ///< the last mask; all labels on a cycle
};

// The passes below take everything by value: they store bytes, which may
// alias anything reached through a reference, so every input is a local.

/// Fills sets[begin, end) with the candidate sets up to the first bad input
/// label or empty set, and returns that node, or end when there is none.
std::size_t fill_candidates(ByteCandidates from, const Label* inputs, std::uint8_t* sets,
                            std::size_t begin, std::size_t end) {
  for (std::size_t v = begin; v < end; ++v) {
    const Label in = inputs[v];
    if (in >= from.alpha) return v;
    auto set = static_cast<std::uint8_t>((v == 0 ? from.first_rows : from.rows)[in]);
    if (v == from.n - 1) set &= from.last;
    if (from.pins != nullptr && from.pins[v].has_value()) {
      set &= static_cast<std::uint8_t>(1u << *from.pins[v]);
    }
    sets[v] = set;
    if (set == 0) return v;
  }
  return end;
}

/// The backward pass proper over sets[begin, end), in place, entering
/// node end - 1 with `entering`.
void backward_pass(const std::uint8_t* pred_image, std::uint8_t* sets, std::size_t begin,
                   std::size_t end, std::uint8_t entering) {
  for (std::size_t v = end; v-- > begin;) {
    const auto set = static_cast<std::uint8_t>(sets[v] & entering);
    sets[v] = set;
    entering = pred_image[set];
  }
}

/// The greedy read of nodes [begin, end) after `label`, into out.
void read_pass(const std::uint8_t* next, const std::uint8_t* sets, Label* out,
               std::size_t begin, std::size_t end, std::uint8_t label) {
  for (std::size_t v = begin; v < end; ++v) {
    label = next[256u * label + sets[v]];
    out[v] = label;
  }
}

}  // namespace

void PathDp::build_byte_tables() {
  const std::size_t beta = problem_->num_outputs();
  pred_image_[0] = 0;
  for (unsigned set = 1; set < 256; ++set) {
    const auto low = static_cast<std::size_t>(std::countr_zero(set));
    const auto row = low < beta ? static_cast<std::uint8_t>(tab_[pred_at_ + low]) : 0;
    pred_image_[set] = static_cast<std::uint8_t>(pred_image_[set & (set - 1)] | row);
  }
  for (std::size_t a = 0; a < 8; ++a) {
    const auto succ = a < beta ? static_cast<unsigned>(tab_[a]) : 0u;
    for (unsigned set = 0; set < 256; ++set) {
      next_label_[a * 256 + set] = lowest_label(static_cast<std::uint8_t>(set & succ));
    }
  }
  byte_tables_ = true;
}

/// The byte kernel, in up to three parallel phases separated by serial
/// scans over the T chunks:
///   1. each chunk fills its candidate sets and stops at its first event
///      (bad input, empty set). The last chunk of a path knows what enters
///      it (every label) and runs the backward pass proper; every other
///      chunk sweeps backward once with one lane per singleton {b} entering
///      its last node, which gives its map from entering set to first
///      node's set (the maps are unions over singletons). A scan finds the
///      earliest event, or, on a cycle, the smallest first label f that
///      node 0 keeps when the composed maps start from pred[f], then fixes
///      each chunk's entering set right to left.
///   2. every chunk not yet narrowed runs the backward pass proper; chunk 0
///      then reads its labels, and every other chunk reads once with one
///      lane per label that may precede it. A scan fixes each chunk's
///      previous label left to right.
///   3. the chunks after the first read their labels.
/// With one chunk there is no read lane and no third phase, and on a path
/// no backward lane either.
bool PathDp::run_bytes(std::span<const Label> inputs,
                       std::span<const std::optional<Label>> pins, Word& out,
                       std::size_t chunks, ThreadPool* pool,
                       const ExecutionBudget* budget) {
  check_pins(pins);
  const std::size_t n = inputs.size();
  const std::size_t alpha = problem_->num_inputs();
  const std::size_t beta = problem_->num_outputs();
  const bool cycle = cycle_;
  const std::size_t T = std::min(chunks, n);
  chunks_.assign(T, ByteChunk{});
  for (std::size_t k = 0; k < T; ++k) {
    chunks_[k].begin = n * k / T;
    chunks_[k].end = n * (k + 1) / T;
  }
  if (sets_.size() < n) sets_.resize(n);
  std::uint8_t* sets = sets_.data();
  if (!byte_tables_) build_byte_tables();
  const std::uint8_t* pred_image = pred_image_;
  const std::uint8_t* next = next_label_;
  out.resize(n);
  const std::optional<Label>* pinned = pins.empty() ? nullptr : pins.data();
  const auto last = cycle ? std::uint8_t{0xff} : static_cast<std::uint8_t>(tab_[last_at_]);
  const ByteCandidates candidates{tab_.data() + cand_at_, tab_.data() + first_at_, pinned,
                                  alpha, n, last};

  budget_check(budget);
  parallel_for(pool, T, [&](std::size_t k) {
    ByteChunk& c = chunks_[k];
    c.event_at = fill_candidates(candidates, inputs.data(), sets, c.begin, c.end);
    if (c.event_at != c.end) return;
    if (!cycle && k == T - 1) {
      backward_pass(pred_image, sets, c.begin, c.end, 0xff);
      c.reached = true;
      return;
    }
    backward_lanes(pred_image, sets, c.begin, c.end, sets[c.end - 1], c.head);
  });
  for (const ByteChunk& c : chunks_) {
    if (c.event_at == c.end) continue;
    if (inputs[c.event_at] >= alpha) throw_bad_input(inputs, c.event_at);
    return false;
  }

  // A chunk's set at its first node, once what enters it is fixed.
  const auto head_set = [&](const ByteChunk& c) {
    return c.reached ? sets[c.begin] : apply_lanes(c.head, c.boundary);
  };
  Label first = 0;
  if (cycle) {
    // through[b]: node 0's set when {b} enters the last node.
    std::uint8_t through[8] = {};
    for (std::size_t b = 0; b < beta; ++b) {
      std::uint8_t set = chunks_[T - 1].head[b];
      for (std::size_t k = T - 1; k > 0; --k) {
        set = apply_lanes(chunks_[k - 1].head, pred_image[set]);
      }
      through[b] = set;
    }
    while (first < beta && (apply_lanes(through, pred_image[1u << first]) >> first & 1) == 0) {
      ++first;
    }
    if (first == beta) return false;
    chunks_[T - 1].boundary = pred_image[1u << first];
  }
  for (std::size_t k = T - 1; k > 0; --k) {
    chunks_[k - 1].boundary = pred_image[head_set(chunks_[k])];
  }
  if (!cycle) {
    const std::uint8_t node0 = head_set(chunks_[0]);
    if (node0 == 0) return false;
    first = lowest_label(node0);
  }

  budget_check(budget);
  parallel_for(pool, T, [&](std::size_t k) {
    ByteChunk& c = chunks_[k];
    if (!c.reached) backward_pass(pred_image, sets, c.begin, c.end, c.boundary);
    if (k == 0) {
      out[0] = first;
      read_pass(next, sets, out.data(), 1, c.end, static_cast<std::uint8_t>(first));
      return;
    }
    read_lanes(next, sets, c.begin, c.end, chunks_[k - 1].boundary, c.tail);
  });
  Label before = out[chunks_[0].end - 1];
  for (std::size_t k = 1; k < T; ++k) {
    chunks_[k].before = before;
    before = chunks_[k].tail[before];
  }

  budget_check(budget);
  parallel_for(pool, T - 1, [&](std::size_t k) {
    const ByteChunk& c = chunks_[k + 1];
    read_pass(next, sets, out.data(), c.begin, c.end, static_cast<std::uint8_t>(c.before));
  });
  return true;
}

std::optional<Word> solve_by_dp(const PairwiseProblem& problem, const Word& inputs) {
  Word out;
  if (!PathDp(problem).complete(inputs, {}, out)) return std::nullopt;
  return out;
}

std::optional<Word> complete_by_dp(const PairwiseProblem& problem, const Word& inputs,
                                   const std::vector<std::optional<Label>>& fixed) {
  if (fixed.size() != inputs.size()) return std::nullopt;
  Word out;
  if (!PathDp(problem).complete(inputs, fixed, out)) return std::nullopt;
  return out;
}

}  // namespace lclpath
