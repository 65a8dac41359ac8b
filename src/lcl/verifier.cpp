#include "lcl/verifier.hpp"

#include <algorithm>
#include <cassert>
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
    : problem_(problem), n_(n), begin_(begin), end_(end) {
  require_symmetric_if_undirected(problem);
  if (begin >= end || end > n) {
    throw std::logic_error("PairwiseChunkVerifier: empty or out-of-range chunk");
  }
}

void PairwiseChunkVerifier::push(Label input, Label output) {
  const std::size_t v = begin_ + count_;
  assert(v < end_);
  const bool path = !is_cycle(problem_.topology());
  // Phase 0: per-node check. Node failures arrive in ascending order, so the
  // first one seen is the chunk's phase-0 minimum.
  if (!node_failed_) {
    const bool ok = (path && v == 0) ? problem_.node_first_ok(input, output)
                                     : problem_.node_ok(input, output);
    if (!ok) {
      node_failed_ = true;
      PairwiseFailure f{0, v, node_fail(problem_, input, output, v)};
      if (!best_ || f < *best_) best_ = std::move(f);
    }
  }
  // Phase 1: path-end check, only when this chunk owns node n-1.
  if (path && v == n_ - 1 && !problem_.last_ok(output)) {
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

std::optional<Word> solve_by_dp(const PairwiseProblem& problem, const Word& inputs) {
  std::vector<std::optional<Label>> fixed(inputs.size());
  return complete_by_dp(problem, inputs, fixed);
}

std::optional<Word> complete_by_dp(const PairwiseProblem& problem, const Word& inputs,
                                   const std::vector<std::optional<Label>>& fixed) {
  const std::size_t n = inputs.size();
  if (n == 0 || fixed.size() != n) return std::nullopt;
  const std::size_t beta = problem.num_outputs();
  const bool cycle = is_cycle(problem.topology());

  // candidates[v] = outputs allowed at v by C_node and the pre-assignment.
  std::vector<BitVector> candidates(n);
  for (std::size_t v = 0; v < n; ++v) {
    BitVector c = (!cycle && v == 0) ? problem.outputs_for_first(inputs[v])
                                     : problem.outputs_for(inputs[v]);
    if (!cycle && v == n - 1 && problem.last_mask().dim() != 0) {
      c = c & problem.last_mask();
    }
    if (fixed[v].has_value()) {
      BitVector only(beta);
      only.set(*fixed[v], true);
      c = c & only;
    }
    if (!c.any()) return std::nullopt;
    candidates[v] = c;
  }

  const BitMatrix& edge = problem.edge_matrix();

  // For a path: forward reachability with per-position candidate masks,
  // then backward greedy extraction (lexicographically smallest).
  // For a cycle: additionally condition on the first node's label so the
  // wrap edge can be enforced; try first labels in increasing order.
  auto solve_linear = [&](std::optional<Label> forced_first,
                          std::optional<Label> wrap_back_to) -> std::optional<Word> {
    // reach[v] = labels achievable at v extending some valid prefix.
    std::vector<BitVector> reach(n);
    reach[0] = candidates[0];
    if (forced_first.has_value()) {
      BitVector only(beta);
      only.set(*forced_first, true);
      reach[0] = reach[0] & only;
    }
    if (!reach[0].any()) return std::nullopt;
    for (std::size_t v = 1; v < n; ++v) {
      reach[v] = reach[v - 1].multiplied(edge) & candidates[v];
      if (!reach[v].any()) return std::nullopt;
    }
    // Filter the last node by the wrap edge, if requested.
    if (wrap_back_to.has_value()) {
      BitVector can_close(beta);
      for (Label a = 0; a < beta; ++a) {
        if (reach[n - 1].get(a) && edge.get(a, *wrap_back_to)) can_close.set(a, true);
      }
      reach[n - 1] = can_close;
      if (!reach[n - 1].any()) return std::nullopt;
    }
    // Backward extraction: choose the smallest label at each position that
    // still admits a completion. Compute feasible sets right-to-left.
    std::vector<BitVector> feas(n);
    feas[n - 1] = reach[n - 1];
    const BitMatrix edge_t = edge.transposed();
    for (std::size_t v = n - 1; v > 0; --v) {
      feas[v - 1] = feas[v].multiplied(edge_t) & reach[v - 1];
    }
    Word out(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      BitVector allowed = feas[v];
      if (v > 0) {
        // restrict to successors of the already-chosen out[v-1]
        BitVector next(beta);
        for (Label b = 0; b < beta; ++b) {
          if (allowed.get(b) && edge.get(out[v - 1], b)) next.set(b, true);
        }
        allowed = next;
      }
      bool found = false;
      for (Label b = 0; b < beta; ++b) {
        if (allowed.get(b)) {
          out[v] = b;
          found = true;
          break;
        }
      }
      if (!found) return std::nullopt;  // defensive; should not happen
    }
    return out;
  };

  if (!cycle) return solve_linear(std::nullopt, std::nullopt);

  if (n == 1) {
    for (Label b = 0; b < beta; ++b) {
      if (candidates[0].get(b) && edge.get(b, b)) return Word{b};
    }
    return std::nullopt;
  }
  for (Label first = 0; first < beta; ++first) {
    if (!candidates[0].get(first)) continue;
    if (auto out = solve_linear(first, first)) return out;
  }
  return std::nullopt;
}

}  // namespace lclpath
