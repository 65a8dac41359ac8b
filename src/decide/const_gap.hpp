// The omega(1) -- o(log* n) gap decider (paper Sections 4.4-4.5, Theorem 9).
//
// An LCL on cycles is solvable in O(1) rounds iff a feasible function f in
// the Section 4.4 sense exists: f assigns to every pattern word w (period
// of a repetitive region) a *periodic* output labeling c = f(w) such that
//
//  (i)  labeling w^infinity by c^infinity is locally consistent everywhere
//       (the completely labeled graphs G_{w,z}); and
//  (ii) for any two patterns w1, w2 and any middle string S, the partially
//       labeled graph G_{w1,w2,S} = w1^{L+2r} ◦ S ◦ w2^{L+2r} with the
//       outer 2r blocks fixed to c1^{2r} / c2^{2r} admits a completion
//       consistent on its middle.
//
// Both conditions depend on the pair (w, c) only through a bounded
// signature:
//
//   sig(w, c) = ( row:  e_{c.last} * N(w)^L,
//                 col:  column c.first of N(w)^L * A(w[0]) )
//
// and (ii) becomes: row(sig1) * N(S) * col(sig2) != 0 for every reachable
// middle element N(S) and the identity (empty S). The achievable signature
// set per pattern is a function of the pattern's monoid element — the
// anchored matrix B(w) gives the valid periodic (first, last) label pairs
// {(x, y) : B(w)[x][y] & edge(y, x)} — so feasibility reduces to choosing
// one signature per reachable element such that all ordered pairs glue:
// a finite search (deduplicated by availability sets, solved by
// backtracking).
//
// For undirected topologies the physical placement of a pattern's labeling
// may be reversed relative to a neighbor; choices are made per
// {element, reversed element} orbit with the reversed labeling fixed to
// the reverse of the forward one, and all four placement combos are
// checked. The synthesized O(1) algorithm realizes exactly those combos:
// it reads each pattern in the direction of its Lemma 19 ell-orientation
// run, so regions of opposite local orientation meet through the reversed
// signatures this decider verified (see decide/synthesized.hpp).
//
// Path topologies additionally require end-segment completability:
// row(sig) * N(S_end) nonempty for every reachable suffix element, and
// prefix vectors reaching col(sig) for every reachable prefix element.
#pragma once

#include <optional>
#include <vector>

#include "automata/monoid.hpp"

namespace lclpath {

/// Chosen periodic labeling boundary for a pattern element: the (first,
/// last) output labels of the period; the synthesized algorithm rebuilds
/// the full periodic labeling for the concrete pattern at run time.
struct PeriodicChoice {
  Label first = 0;
  Label last = 0;
  bool operator==(const PeriodicChoice&) const = default;
};

struct ConstGapCertificate {
  bool feasible = false;
  std::size_t ell_ctx = 0;  ///< the exponent L used for pumped powers

  /// For each monoid element index (pattern class), the chosen periodic
  /// boundary pair, if the element is a possible pattern (all are).
  /// Empty when !feasible.
  std::vector<PeriodicChoice> choice_per_element;

  PeriodicChoice choice_for(std::size_t element) const {
    return choice_per_element.at(element);
  }
};

/// A non-null `budget` is checkpointed through the pumped-power build,
/// the endpoint/compatibility sweeps, and the backtracking search, so a
/// deadline or cancellation interrupts the decider with CancelledError.
ConstGapCertificate decide_const_gap(const Monoid& monoid,
                                     const ExecutionBudget* budget = nullptr);

}  // namespace lclpath
