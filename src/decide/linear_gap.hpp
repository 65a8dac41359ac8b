// The omega(log* n) -- o(n) gap decider (paper Section 4.2, Theorem 8).
//
// An LCL on cycles is solvable in O(log* n) rounds iff a "feasible
// function" f exists: f labels each well-spaced separator block S of 2r
// nodes, given the input words w1 (left context) and w2 (right context) of
// length ell_ctx or ell_ctx + 1, such that any two labeled blocks can
// always be glued by completing the unlabeled context between them
// (paper's requirement on wa..wd, S1, S2).
//
// Extendibility depends on contexts only through their monoid elements
// (Lemmas 10-11), so the search runs over *domain points*
//
//     p = (kind, left element, S = (s0, s1), right element)
//
// with elements drawn from the layers at lengths {ell_ctx, ell_ctx+1}.
// Candidate block values v = (va, vb) must pass the local filter
//
//     node(s0, va) & node(s1, vb) & edge(va, vb)
//
// plus endpoint filters on path topologies (left ends use prefix vectors,
// right ends use forward rows). The gluing constraint for an ordered pair
// (p1 -> p2) across the middle wb ◦ wc (wb = p1's right context, wc = p2's
// left context) is the reachability
//
//     [ e_{v1.b} * N(wb) * N(wc) * A(s0 of p2) ] (v2.a)  != 0.
//
// Feasibility = existence of one value per domain point satisfying every
// ordered pair constraint (including p1 == p2). The factorized search
// solves this over aggregate symbol caps per context *class* (contexts
// quotiented by their (fwd, pvec) data), so both the search and the
// certificate cost O(|classes|^2), not O(points).
//
// Certificate contract
// --------------------
// A feasible LinearGapCertificate is the synthesized O(log* n)
// algorithm's lookup table (Lemma 17): value_at(p) returns the chosen
// block value of domain point p, and for_each_point enumerates the whole
// domain with its values in the canonical order (kInterior, then on paths
// kLeftEnd, kRightEnd; within a kind: left context ascending, s0, s1,
// right context — contexts in sorted element order).
//
// The certificate is the search's class-level solution itself: the
// element -> context-class maps, the per-class candidate filters and the
// endpoint filters. value_at maps the point's elements to their classes
// and picks the first valid (va, vb) from the class solution, memoized per
// class tuple (thread-safe; repeated simulator lookups are O(1)). Storage
// is O(|classes|^2 * |Sigma_in|^2) — MBs on the lifted shift-input, whose
// domain has ~3 * 10^7 points. value_at on a point outside the domain throws
// std::logic_error.
//
// Undirected topologies additionally quantify over the four
// orientation combinations of the paper's requirement; the reversal of a
// domain point is another domain point (the monoid tracks reversed
// matrices), and the search checks all placement combos.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "automata/monoid.hpp"

namespace lclpath {

/// Output labels of a separator block (2r = 2 nodes).
struct BlockValue {
  Label a = 0;
  Label b = 0;
  bool operator==(const BlockValue&) const = default;
};

/// Role of a separator block along a path; cycles only use kInterior.
enum class BlockKind : std::uint8_t { kInterior, kLeftEnd, kRightEnd };

struct BlockPoint {
  BlockKind kind = BlockKind::kInterior;
  std::size_t left = 0;   ///< monoid element of the left context (prefix for kLeftEnd)
  Label s0 = 0, s1 = 0;   ///< inputs of the block
  std::size_t right = 0;  ///< monoid element of the right context (suffix for kRightEnd)

  bool operator==(const BlockPoint&) const = default;

  /// The same physical block read in the opposite direction: contexts
  /// swap and reverse (via the monoid's reversal map), the block inputs
  /// swap, and end kinds trade places. The undirected synthesis
  /// strategies look up a block whose local orientation opposes the
  /// window presentation through this point — exactly the reversed
  /// placements the undirected deciders quantify over.
  BlockPoint reversed(const Monoid& monoid) const;
};

/// Kept only because pipebench/ spells it out; a benchmark change may delete it.
enum class CertificateMode : std::uint8_t { kAuto };

/// The search's class-level solution; opaque outside linear_gap.cpp
/// (consume it through LinearGapCertificate).
class LazyFeasibleFunction;

class LinearGapCertificate {
 public:
  bool feasible = false;
  /// Context length used for the domain (monoid size + margin).
  std::size_t ell_ctx = 0;

  /// Number of domain points (0 if infeasible).
  std::size_t domain_size() const;

  /// True if the point is a domain point of this certificate.
  bool contains(const BlockPoint& point) const;

  /// Runtime lookup for the synthesized algorithm; throws std::logic_error
  /// if the point is not in the domain — that indicates a synthesis bug.
  /// Thread-safe.
  BlockValue value_at(const BlockPoint& point) const;

  /// Enumerates every (point, value) of the feasible function in the
  /// canonical domain order.
  void for_each_point(
      const std::function<void(const BlockPoint&, const BlockValue&)>& fn) const;

  /// Installs the search's class-level solution (decide_linear_gap calls
  /// this on success).
  void adopt(std::shared_ptr<const LazyFeasibleFunction> function);

 private:
  std::shared_ptr<const LazyFeasibleFunction> function_;
};

/// Kept only because pipebench/ spells it out; a benchmark change may delete it.
enum class LinearGapEngine : std::uint8_t { kFactorized };

/// Decides feasibility (hence the Theta(log* n) vs Theta(n) side of the
/// gap) for a solvable problem. The problem's topology decides endpoint
/// handling and orientation combos. The gluing constraint between two
/// domain points reads p1 only through (right-context element, b-symbol)
/// and p2 only through (left-context element, s0, a-symbol), so the
/// search runs over aggregate symbol tables indexed by those two quotient
/// spaces (plus the reversed-orientation combos on undirected
/// topologies): its cost scales with |contexts|^2 * |Sigma_in| * beta
/// instead of with the square of the number of domain points. A non-null
/// `budget` is checkpointed throughout the propagation and branch loops,
/// so a deadline or cancellation interrupts it with CancelledError.
LinearGapCertificate decide_linear_gap(
    const Monoid& monoid, LinearGapEngine engine = LinearGapEngine::kFactorized,
    CertificateMode mode = CertificateMode::kAuto,
    const ExecutionBudget* budget = nullptr);

/// The context set every domain point draws its left and right elements
/// from: the monoid layers at word lengths ell_ctx and ell_ctx + 1
/// (ell_ctx = monoid size + margin), sorted and deduplicated. The one
/// construction the decider and any independent re-check share.
struct LinearGapContexts {
  std::size_t ell_ctx = 0;
  std::vector<std::size_t> elements;
};
LinearGapContexts linear_gap_contexts(const Monoid& monoid);

/// Number of domain points decide_linear_gap enumerates for this monoid
/// (kinds * |contexts|^2 * |Sigma_in|^2, where contexts are the layers at
/// lengths ell_ctx and ell_ctx + 1); optionally also reports |contexts|.
/// Exposed so tests and benchmarks can size a domain without searching it.
std::size_t linear_gap_domain_size(const Monoid& monoid,
                                   std::size_t* num_contexts = nullptr);

}  // namespace lclpath
