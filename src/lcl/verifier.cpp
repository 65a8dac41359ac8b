#include "lcl/verifier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>

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

/// The one dynamic program behind solve_by_dp, complete_by_dp and every
/// PathDp completion. A label set is a mask of W = ceil(beta / 64) words
/// (label b at bit b % 64 of word b / 64); kW fixes W at compile time (1
/// covers beta <= 64) and kW == 0 reads it from w_.
///
/// tab_ holds, W words per row: the successor rows (succ[a] = {b : a -> b
/// allowed}), the predecessor rows (pred[b] = {a : a -> b allowed}), the
/// C_node row of every input, the first-node rule's row of every input
/// (paths with such a rule only), the last mask and node 0's candidates
/// (the one row a run rewrites). reach_ holds W words per node: forward,
/// the labels at v that extend a valid prefix; after the backward pass,
/// those that also extend to a valid suffix. The labels are then read
/// greedily front to back.
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
                      std::span<const std::optional<Label>> pins, Word& out) {
  if (inputs.empty() || (!pins.empty() && pins.size() != inputs.size())) return false;
  if (w_ == 1) return run<1>(inputs, pins, out);
  return run<0>(inputs, pins, out);
}

template <std::size_t kW>
bool PathDp::run(std::span<const Label> inputs, std::span<const std::optional<Label>> pins,
                 Word& out) {
  const PairwiseProblem& problem = *problem_;
  const std::size_t W = kW != 0 ? kW : w_;
  const std::size_t n = inputs.size();
  const std::size_t beta = problem.num_outputs();
  const std::size_t alpha = problem.num_inputs();
  const bool cycle = cycle_;
  for (const std::optional<Label>& pin : pins) {
    if (pin.has_value() && *pin >= beta) {
      throw std::out_of_range("complete_by_dp: pinned label out of range");
    }
  }
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

  // First pass: a bad input label throws, and an empty candidate set is
  // infeasible before any solve.
  if (reach_.size() < n * W) reach_.resize(n * W);
  std::uint64_t* reach = reach_.data();
  for (std::size_t v = 0; v < n; ++v) {
    if (inputs[v] >= alpha) {
      // Out of range: the accessor throws std::out_of_range with its message.
      (void)(!cycle && v == 0 ? problem.outputs_for_first(inputs[v])
                              : problem.outputs_for(inputs[v]));
    }
    candidates(v, &reach[v * W]);
    if (!any(&reach[v * W])) return false;
  }
  for (std::size_t i = 0; i < W; ++i) node0[i] = reach[i];

  // Forward from node 0's candidates (on a cycle, from the one label
  // `first`, closed by the wrap edge back to it), backward in place, then
  // the greedy read into `out`. The first solve finds every node's
  // candidates still in `reach` from the pass above; a retry (the next
  // first label on a cycle) reloads them.
  out.resize(n);
  bool fresh = true;
  const auto solve = [&](std::optional<Label> first) {
    for (std::size_t i = 0; i < W; ++i) {
      reach[i] = !first.has_value()   ? node0[i]
                 : i == *first / 64 ? std::uint64_t{1} << (*first % 64)
                                    : 0;
    }
    const bool reload = !fresh;
    fresh = false;
    for (std::size_t v = 1; v < n; ++v) {
      std::uint64_t* cur = &reach[v * W];
      if (reload) candidates(v, cur);
      for (std::size_t i = 0; i < W; ++i) cur[i] &= image_word(succ, cur - W, i);
      if (!any(cur)) return false;
    }
    if (first.has_value()) {
      std::uint64_t* last = &reach[(n - 1) * W];
      for (std::size_t i = 0; i < W; ++i) last[i] &= pred[*first * W + i];
      if (!any(last)) return false;
    }
    for (std::size_t v = n - 1; v > 0; --v) {
      const std::uint64_t* cur = &reach[v * W];
      std::uint64_t* prev = &reach[(v - 1) * W];
      for (std::size_t i = 0; i < W; ++i) prev[i] &= image_word(pred, cur, i);
    }
    const auto lowest = [W](const std::uint64_t* set, const std::uint64_t* within) {
      for (std::size_t i = 0; i < W; ++i) {
        if (const std::uint64_t m = set[i] & within[i]; m != 0) {
          return static_cast<Label>(i * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        }
      }
      return Label{0};  // unreachable: the backward pass keeps a successor
    };
    out[0] = lowest(reach, reach);
    for (std::size_t v = 1; v < n; ++v) {
      out[v] = lowest(&reach[v * W], succ + out[v - 1] * W);
    }
    return true;
  };

  if (!cycle) return solve(std::nullopt);
  if (n == 1) {
    // Degenerate self-loop cycle: the wrap edge is (b, b).
    for (Label b = 0; b < beta; ++b) {
      if (has(node0, b) && has(succ + b * W, b)) {
        out[0] = b;
        return true;
      }
    }
    return false;
  }
  for (Label first = 0; first < beta; ++first) {
    if (has(node0, first) && solve(first)) return true;
  }
  return false;
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
