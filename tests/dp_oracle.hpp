// Differential oracle for solve_by_dp / complete_by_dp: the per-node
// BitVector dynamic program the library used before its word-mask kernel,
// kept verbatim apart from the names. It allocates one BitVector per node
// and per operation, so it is slow on large output alphabets and long
// words; dp_kernel_diff_test compares the library against it label for
// label. A pin outside [0, beta) is undefined behaviour here (BitVector::set
// only asserts its index), so the differential inputs keep every pin in
// range.
#pragma once

#include <optional>
#include <vector>

#include "core/bitmatrix.hpp"
#include "lcl/problem.hpp"

namespace lclpath::testing {

inline std::optional<Word> oracle_complete_by_dp(
    const PairwiseProblem& problem, const Word& inputs,
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

inline std::optional<Word> oracle_solve_by_dp(const PairwiseProblem& problem,
                                              const Word& inputs) {
  std::vector<std::optional<Label>> fixed(inputs.size());
  return oracle_complete_by_dp(problem, inputs, fixed);
}

}  // namespace lclpath::testing
