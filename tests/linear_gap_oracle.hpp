// The point-pair gluing sweep for the Section 4.2 feasible function: the
// differential oracle for decide_linear_gap (src/decide/linear_gap.hpp).
//
// It enumerates every domain point explicitly (over the same context set
// the decider uses, linear_gap_contexts), filters each point's candidate
// block values, prunes by arc consistency on the forward/forward combo,
// and then backtracks over the orbits {p, reversal of p} checking every
// ordered pair of assigned points under every orientation combo. That is
// the paper's requirement read literally, so it shares no search logic
// with the factorized decider — and it is quadratic in domain points:
// affordable only on small domains (a few thousand points), effectively
// non-terminating on the lifted undirected problems (~10^5 points and up).
//
// decide_pairwise returns its own point -> value table; check_pairwise
// applies the same candidate filter and per-pair check to any full
// assignment, e.g. the values a LinearGapCertificate serves through
// value_at.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "decide/linear_gap.hpp"

namespace lclpath::testing {

struct BlockPointHash {
  std::size_t operator()(const BlockPoint& p) const {
    std::size_t h = hash_mix(static_cast<std::size_t>(p.kind), p.left);
    h = hash_mix(h, p.s0);
    h = hash_mix(h, p.s1);
    return hash_mix(h, p.right);
  }
};

/// The oracle's feasible function: `choice[i]` is the value of
/// `domain[i]`; the domain is in the decider's canonical order.
struct PairwiseSolution {
  bool feasible = false;
  std::size_t ell_ctx = 0;
  std::vector<BlockPoint> domain;
  std::vector<BlockValue> choice;  ///< empty if infeasible
};

namespace oracle_detail {

/// The explicit domain plus everything the pair check reads.
struct Search {
  const Monoid& monoid;
  const TransitionSystem& ts;
  const ExecutionBudget* budget;
  bool directed;
  LinearGapContexts contexts;

  std::vector<BlockPoint> domain;
  std::vector<std::size_t> rho;  ///< reversed point per point (identity if directed)

  /// glue_cache[(right, left, s0)] = fwd(right) * fwd(left) * A(s0); the
  /// glue check is then a single bit lookup. Keyed by the actual triple —
  /// a hashed key could silently alias two triples on collision.
  std::map<std::tuple<std::size_t, std::size_t, Label>, BitMatrix> glue_cache;

  /// row_cache[element][label] = e_label * fwd(element)
  std::vector<std::vector<BitVector>> row_cache;

  Search(const Monoid& m, const ExecutionBudget* b)
      : monoid(m),
        ts(m.transitions()),
        budget(b),
        directed(is_directed(m.transitions().problem().topology())),
        contexts(linear_gap_contexts(m)) {
    row_cache.resize(monoid.size());
    // The point count is kinds x |contexts|^2 x alpha^2 and lifted problems
    // reach tens of millions of points, so the build itself — and the
    // index and reversal passes — must checkpoint and charge the budget.
    budget_charge_memory(budget, linear_gap_domain_size(monoid) *
                                     (sizeof(BlockPoint) + sizeof(std::size_t) +
                                      sizeof(std::vector<BlockValue>)));
    auto add_points = [&](BlockKind kind) {
      for (std::size_t left : contexts.elements) {
        for (Label s0 = 0; s0 < ts.num_inputs(); ++s0) {
          for (Label s1 = 0; s1 < ts.num_inputs(); ++s1) {
            for (std::size_t right : contexts.elements) {
              budget_checkpoint(budget);
              domain.push_back(BlockPoint{kind, left, s0, s1, right});
            }
          }
        }
      }
    };
    add_points(BlockKind::kInterior);
    if (!is_cycle(ts.problem().topology())) {
      add_points(BlockKind::kLeftEnd);
      add_points(BlockKind::kRightEnd);
    }

    rho.resize(domain.size());
    if (directed) {
      for (std::size_t i = 0; i < domain.size(); ++i) rho[i] = i;
      return;
    }
    std::unordered_map<BlockPoint, std::size_t, BlockPointHash> index;
    index.reserve(domain.size());
    for (std::size_t i = 0; i < domain.size(); ++i) {
      budget_checkpoint(budget);
      index.emplace(domain[i], i);
    }
    for (std::size_t i = 0; i < domain.size(); ++i) {
      budget_checkpoint(budget);
      auto it = index.find(domain[i].reversed(monoid));
      if (it == index.end()) {
        throw std::logic_error("oracle: reversed point missing from domain");
      }
      rho[i] = it->second;
    }
  }

  const BitVector& row_of(std::size_t element, Label label) {
    auto& rows = row_cache[element];
    if (rows.empty()) {
      rows.reserve(ts.num_outputs());
      for (Label l = 0; l < ts.num_outputs(); ++l) {
        rows.push_back(BitVector::unit(ts.num_outputs(), l)
                           .multiplied(monoid.element(element).fwd));
      }
    }
    return rows[label];
  }

  /// Gluing across middle = fwd(right_elem) * fwd(left_elem) * A(s0).
  const BitMatrix& glue_matrix(std::size_t right_elem, std::size_t left_elem, Label s0) {
    const auto key = std::tuple(right_elem, left_elem, s0);
    auto it = glue_cache.find(key);
    if (it == glue_cache.end()) {
      // A miss is two dense BitMatrix multiplies — heavy enough that the
      // amortized tick counter would hide the clock for seconds on large
      // lifted alphabets, so read it directly.
      budget_check(budget);
      BitMatrix g = monoid.element(right_elem).fwd * monoid.element(left_elem).fwd *
                    ts.step(s0);
      it = glue_cache.emplace(key, std::move(g)).first;
    }
    return it->second;
  }

  /// The local candidate filter of point p: node(s0, va) & node(s1, vb) &
  /// edge(va, vb), plus prefix completability for a left end block and
  /// suffix completability for a right end block.
  bool candidate_ok(std::size_t p, const BlockValue& v) {
    const PairwiseProblem& problem = ts.problem();
    const BlockPoint& point = domain[p];
    if (!problem.node_ok(point.s0, v.a) || !problem.node_ok(point.s1, v.b) ||
        !problem.edge_ok(v.a, v.b)) {
      return false;
    }
    if (point.kind == BlockKind::kLeftEnd &&
        !monoid.element(point.left).pvec.multiplied(ts.step(point.s0)).get(v.a)) {
      return false;
    }
    // The chain from vb through the suffix must reach an output allowed at
    // the path's last node.
    return point.kind != BlockKind::kRightEnd ||
           row_of(point.right, v.b).intersects(ts.last_mask());
  }

  bool left_role(std::size_t p) const { return domain[p].kind != BlockKind::kRightEnd; }
  bool right_role(std::size_t p) const { return domain[p].kind != BlockKind::kLeftEnd; }

  /// The first orientation combo under which p1 (left role, value v1)
  /// does not glue to p2 (right role, value v2), with rv1/rv2 the values
  /// of their reversed points; nullptr if every placement glues. Directed
  /// problems have only the forward/forward combo.
  const char* pair_violation(std::size_t p1, const BlockValue& v1, const BlockValue& rv1,
                             std::size_t p2, const BlockValue& v2, const BlockValue& rv2) {
    const BitMatrix& g = glue_matrix(domain[p1].right, domain[p2].left, domain[p2].s0);
    // Right-facing symbol of block 1 / left-facing symbol of block 2 per
    // orientation: a reversed placement presents the reversed point's
    // value, whose .a faces right and .b faces left.
    if (!g.get(v1.b, v2.a)) return "F/F";
    if (directed) return nullptr;
    if (!g.get(rv1.a, v2.a)) return "R/F";
    if (!g.get(v1.b, rv2.b)) return "F/R";
    if (!g.get(rv1.a, rv2.b)) return "R/R";
    return nullptr;
  }
};

}  // namespace oracle_detail

/// Applies the oracle's checks to a full assignment over `domain` (which
/// must be the decider's domain in canonical order): every value passes
/// its point's candidate filter, and every ordered pair of points in
/// left x right role glues under every orientation combo. Returns a
/// description of the first violation, or nullopt when the assignment is
/// a feasible function.
inline std::optional<std::string> check_pairwise(const Monoid& monoid,
                                                 const std::vector<BlockPoint>& domain,
                                                 const std::vector<BlockValue>& values) {
  oracle_detail::Search search(monoid, nullptr);
  if (search.domain != domain || values.size() != domain.size()) {
    return "assignment does not cover the decider's domain";
  }
  const std::size_t n = domain.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!search.candidate_ok(i, values[i])) {
      return "point " + std::to_string(i) + " fails its candidate filter";
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!search.left_role(i)) continue;
    const BlockValue& rv1 = values[search.rho[i]];
    for (std::size_t j = 0; j < n; ++j) {
      if (!search.right_role(j)) continue;
      const char* combo =
          search.pair_violation(i, values[i], rv1, j, values[j], values[search.rho[j]]);
      if (combo != nullptr) {
        return "points " + std::to_string(i) + " -> " + std::to_string(j) + " fail " +
               combo;
      }
    }
  }
  return std::nullopt;
}

/// Decides feasibility by explicit per-point search (see file comment).
/// A non-null `budget` is checkpointed throughout the domain build, the
/// pruning sweeps and the backtracking, so a deadline interrupts even this
/// quadratic search with CancelledError.
inline PairwiseSolution decide_pairwise(const Monoid& monoid,
                                        const ExecutionBudget* budget = nullptr) {
  const TransitionSystem& ts = monoid.transitions();
  const std::size_t beta = ts.num_outputs();
  oracle_detail::Search search(monoid, budget);
  PairwiseSolution solution;
  solution.ell_ctx = search.contexts.ell_ctx;
  const std::size_t n_points = search.domain.size();

  // Candidate filters.
  std::vector<std::vector<BlockValue>> candidates(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    for (Label va = 0; va < beta; ++va) {
      budget_checkpoint(budget);
      for (Label vb = 0; vb < beta; ++vb) {
        if (search.candidate_ok(i, BlockValue{va, vb})) {
          candidates[i].push_back(BlockValue{va, vb});
        }
      }
    }
    if (candidates[i].empty()) return solution;  // some block can never be labeled
  }

  // Arc-consistency pruning on the forward/forward combo (a necessary
  // condition for any placement): a value v1 at a left-role point p1 needs,
  // for *every* right-role p2, some partner v2 with
  // G(p1.right, p2.left, p2.s0)[v1.b][v2.a] — and symmetrically. Because
  // the condition only reads (p1.right, v1.b) on one side and
  // (p2.left, p2.s0, v2.a) on the other, supports can be aggregated per
  // context element; iterate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    // allowed_b[elemR] = symbols sym1 such that for every right-role p2
    // some v2 in cand(p2) glues from sym1.
    std::unordered_map<std::size_t, BitVector> allowed_b;
    for (std::size_t elemR : search.contexts.elements) {
      BitVector all = BitVector::ones(beta);
      for (std::size_t p2 = 0; p2 < n_points; ++p2) {
        budget_checkpoint(budget);
        if (!search.right_role(p2)) continue;
        const BlockPoint& b = search.domain[p2];
        BitVector a_set(beta);
        for (const BlockValue& v2 : candidates[p2]) a_set.set(v2.a, true);
        const BitMatrix& g = search.glue_matrix(elemR, b.left, b.s0);
        BitVector supported(beta);
        for (Label sym1 = 0; sym1 < beta; ++sym1) {
          budget_checkpoint(budget);
          BitVector row(beta);
          for (Label sym2 = 0; sym2 < beta; ++sym2) row.set(sym2, g.get(sym1, sym2));
          if (row.intersects(a_set)) supported.set(sym1, true);
        }
        all = all & supported;
        if (!all.any()) break;
      }
      allowed_b.emplace(elemR, std::move(all));
    }
    for (std::size_t p1 = 0; p1 < n_points; ++p1) {
      if (!search.left_role(p1)) continue;
      auto& cand = candidates[p1];
      const BitVector& ok = allowed_b.at(search.domain[p1].right);
      const std::size_t before = cand.size();
      std::erase_if(cand, [&](const BlockValue& v) { return !ok.get(v.b); });
      if (cand.size() != before) changed = true;
      if (cand.empty()) return solution;
    }
    // Mirror direction: allowed_a[(elemL, s0)].
    std::map<std::pair<std::size_t, Label>, BitVector> allowed_a;
    for (std::size_t elemL : search.contexts.elements) {
      for (Label s0 = 0; s0 < ts.num_inputs(); ++s0) {
        BitVector all = BitVector::ones(beta);
        for (std::size_t p1 = 0; p1 < n_points; ++p1) {
          budget_checkpoint(budget);
          if (!search.left_role(p1)) continue;
          BitVector b_set(beta);
          for (const BlockValue& v1 : candidates[p1]) b_set.set(v1.b, true);
          const BitMatrix& g = search.glue_matrix(search.domain[p1].right, elemL, s0);
          all = all & b_set.multiplied(g);
          if (!all.any()) break;
        }
        allowed_a.emplace(std::pair(elemL, s0), std::move(all));
      }
    }
    for (std::size_t p2 = 0; p2 < n_points; ++p2) {
      if (!search.right_role(p2)) continue;
      auto& cand = candidates[p2];
      const BitVector& ok =
          allowed_a.at(std::pair(search.domain[p2].left, search.domain[p2].s0));
      const std::size_t before = cand.size();
      std::erase_if(cand, [&](const BlockValue& v) { return !ok.get(v.a); });
      if (cand.size() != before) changed = true;
      if (cand.empty()) return solution;
    }
  }

  // The search couples each point with its reversed point; assign values
  // jointly to the orbit {p, rho(p)}. Representatives: min index of orbit.
  std::vector<std::size_t> orbit_reps;
  for (std::size_t i = 0; i < n_points; ++i) {
    if (std::min(i, search.rho[i]) == i) orbit_reps.push_back(i);
  }

  // Assignment: value per point (both orbit members assigned together,
  // independently chosen — the orbit grouping only orders the search).
  std::vector<int> chosen(n_points, -1);
  auto value_of = [&](std::size_t p) {
    return candidates[p][static_cast<std::size_t>(chosen[p])];
  };
  // Check the full pair constraint between two *assigned* points.
  auto assigned_pair_ok = [&](std::size_t p1, std::size_t p2) {
    if (!search.left_role(p1) || !search.right_role(p2)) return true;
    const std::size_t r1 = search.rho[p1];
    const std::size_t r2 = search.rho[p2];
    if (chosen[r1] < 0 || chosen[r2] < 0) return true;  // rechecked when assigned
    return search.pair_violation(p1, value_of(p1), value_of(r1), p2, value_of(p2),
                                 value_of(r2)) == nullptr;
  };

  // Backtracking over orbit representatives in order; for each, try all
  // value pairs for (rep, rho(rep)). Iterative — the search is one level
  // deep per orbit and large domains would blow the call stack with a
  // recursive formulation.
  const std::size_t n_orbits = orbit_reps.size();
  std::vector<std::size_t> vi_at(n_orbits, 0);
  std::vector<std::size_t> qi_at(n_orbits, 0);
  std::size_t pos = 0;
  bool entering = true;  // fresh entry at pos vs resuming after a backtrack
  while (pos < n_orbits) {
    const std::size_t p = orbit_reps[pos];
    const std::size_t q = search.rho[p];
    const std::size_t np = candidates[p].size();
    const std::size_t nq = (q == p) ? 1 : candidates[q].size();
    if (entering) {
      vi_at[pos] = 0;
      qi_at[pos] = 0;
    } else {
      chosen[p] = -1;
      if (q != p) chosen[q] = -1;
      if (++qi_at[pos] >= nq) {
        qi_at[pos] = 0;
        ++vi_at[pos];
      }
    }
    bool placed = false;
    while (vi_at[pos] < np && !placed) {
      for (; qi_at[pos] < nq; ++qi_at[pos]) {
        budget_checkpoint(budget);
        chosen[p] = static_cast<int>(vi_at[pos]);
        if (q != p) chosen[q] = static_cast<int>(qi_at[pos]);
        // Check all constraints among assigned points that involve p or q.
        // Tick per pair-check, not per placement: a placement sweeps every
        // assigned point, so one tick per placement would put thousands of
        // glue probes between clock reads.
        bool ok = true;
        for (std::size_t other = 0; other < n_points && ok; ++other) {
          budget_checkpoint(budget);
          if (chosen[other] < 0) continue;
          ok = assigned_pair_ok(p, other) && assigned_pair_ok(other, p);
          if (ok && q != p) ok = assigned_pair_ok(q, other) && assigned_pair_ok(other, q);
        }
        if (ok) {
          placed = true;
          break;
        }
        chosen[p] = -1;
        if (q != p) chosen[q] = -1;
      }
      if (!placed) {
        ++vi_at[pos];
        qi_at[pos] = 0;
      }
    }
    if (placed) {
      ++pos;
      entering = true;
    } else {
      if (pos == 0) return solution;  // infeasible
      --pos;
      entering = false;
    }
  }

  solution.feasible = true;
  solution.choice.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) solution.choice.push_back(value_of(i));
  solution.domain = std::move(search.domain);
  return solution;
}

}  // namespace lclpath::testing
