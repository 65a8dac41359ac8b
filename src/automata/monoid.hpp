// The finite monoid of input words under the transition matrices.
//
// Lemma 13 bounds the number of path types; operationally we enumerate the
// reachable elements of the monoid generated by {A(sigma)} via BFS. Each
// element carries everything the deciders need about a word w:
//
//   fwd      = N(w)                      (word matrix)
//   rev      = N(reverse(w))             (for undirected problems)
//   anchored = B(w)                      (first label anchored; Section 4.4)
//   pvec     = prefix_vector(w)          (path-start labelings)
//   pvec_rev = prefix_vector(reverse(w)) (path-end labelings, undirected)
//   first/last input symbols.
//
// Two words with equal element data are interchangeable in every context
// any decider looks at; this refines the paper's ?~ equivalence (refining
// is sound: feasibility searches quantify over the finer classes).
//
// Enumeration is single-pass: the BFS that discovers elements also records
// the extend table (the successor index is known the moment a probe is
// interned) and the per-element data hashes; the reversal map is then
// derived from those cached component hashes without re-materializing any
// element. Shortest witness words are not stored — each element keeps a
// (parent, sigma) link into the BFS tree and witness() reconstructs the
// word on demand, so witness storage is O(elements), not
// O(elements x word length).
//
// ell_pump = number of reachable elements + 1: any word of length
// >= ell_pump has two equal prefix elements, giving the pumping
// decomposition of Lemma 14.
//
// layer_cycle() walks the layer sets S_L = {element of w : |w| = L}.
// S_{L+1} is a function of S_L alone, so the sequence is eventually
// periodic; the walk stops at its first repeat and answers every length
// by a modular fold. The linear-gap decider reads its contexts
// S_ell_ctx ∪ S_ell_ctx+1 from it (Lemmas 10-11), and the synthesized
// log* algorithm its stabilization point.
//
// Monoids are expensive to build and immutable afterwards: problems that
// share a transition-system skeleton (same matrices + topology, e.g. a
// renamed catalog entry) can share one const Monoid through the
// caller-owned MonoidCache below (see ClassifyOptions::monoid_cache).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "automata/transition.hpp"
#include "core/cancel.hpp"
#include "core/memo_cache.hpp"

namespace lclpath {

/// Thrown when a problem's reachable type space exceeds a monoid budget —
/// a first-class outcome (the Theorem 5 study observable, BatchErrorKind::
/// kBudget), distinguishable from internal failures. Message is unchanged
/// from the historical std::runtime_error, which it still is-a.
class MonoidBudgetError : public std::runtime_error {
 public:
  explicit MonoidBudgetError(std::size_t max_elements)
      : std::runtime_error(
            "Monoid::enumerate: reachable type space exceeds the configured "
            "budget (" +
            std::to_string(max_elements) + " elements)"),
        max_elements_(max_elements) {}

  std::size_t max_elements() const { return max_elements_; }

 private:
  std::size_t max_elements_;
};

/// One throw site for Monoid::enumerate and for cache hits served under a
/// tighter budget, so the two paths honoring the same contract can never
/// drift apart.
[[noreturn]] void throw_monoid_budget_overflow(std::size_t max_elements);

struct MonoidElement {
  BitMatrix fwd;
  BitMatrix rev;
  BitMatrix anchored;
  BitMatrix anchored_rev;  ///< B(reverse(w)); keeps the reversal map well defined
  BitVector pvec;
  BitVector pvec_rev;
  Label first = 0;
  Label last = 0;

  /// Equality on the semantic fields.
  bool same_data(const MonoidElement& other) const;
  std::size_t data_hash() const;
};

/// The layer-set sequence S_1, S_2, ... of a monoid up to its first
/// repeat: S_{preperiod + 1 + period} == S_{preperiod + 1}, and no two of
/// the stored layers are equal.
struct LayerCycle {
  /// The stored layers S_1 .. S_{preperiod + period}, concatenated; each
  /// is the sorted list of its element indices.
  std::vector<std::size_t> elements;
  /// Layer i (0-based) is elements[starts[i], starts[i + 1]).
  std::vector<std::size_t> starts;
  std::size_t preperiod = 0;
  std::size_t period = 0;

  /// S_length for any length >= 1, folded into the cycle. The span points
  /// into this LayerCycle.
  std::span<const std::size_t> at(std::size_t length) const;

  /// Smallest k >= 1 with S_k == S_{k+2}. Past this point the sequence is
  /// (<= 2)-periodic: every word of length >= k has its element inside
  /// S_k ∪ S_{k+1}, which equals the certificate domain S_L ∪ S_{L+1} for
  /// any L >= k. Synthesized algorithms use this to shrink context lengths
  /// from the worst-case ell_ctx to what the problem's own layer structure
  /// stabilizes at. Returns SIZE_MAX when the period is longer than 2 (no
  /// such k exists; callers fall back to ell_ctx).
  std::size_t stabilization() const;
};

class Monoid {
 public:
  /// Enumerates all reachable elements (nonempty words). Throws
  /// MonoidBudgetError if the count exceeds max_elements — callers report
  /// that the problem's type space is too large for classification with
  /// the configured budget. A non-null `budget` is checkpointed once per
  /// BFS probe and charged the interned elements' storage, so deadlines,
  /// cancellation, and memory ceilings all interrupt the enumeration with
  /// CancelledError.
  static Monoid enumerate(const TransitionSystem& ts, std::size_t max_elements = 500000,
                          const ExecutionBudget* budget = nullptr);

  const TransitionSystem& transitions() const { return ts_; }
  std::size_t size() const { return elements_.size(); }
  const MonoidElement& element(std::size_t index) const { return elements_[index]; }
  const std::vector<MonoidElement>& elements() const { return elements_; }

  /// Paper's pumping constant: one more than the number of elements.
  std::size_t ell_pump() const { return elements_.size() + 1; }

  /// Element index of the word obtained by appending sigma to element.
  std::size_t extend(std::size_t element, Label sigma) const;
  /// Element index of a single-symbol word (the seed index recorded when
  /// the BFS was seeded; O(1), no lookup).
  std::size_t of_symbol(Label sigma) const;
  /// Element index of a nonempty word.
  std::size_t of_word(std::span<const Label> w) const;

  /// A shortest word with this element's data (BFS order), reconstructed
  /// from the element's (parent, sigma) link chain.
  Word witness(std::size_t element) const;

  /// Index of the element representing reverse(w) for element-of-w, if
  /// reachable (always is: the reversed word is a word).
  std::size_t reversed_index(std::size_t element) const;

  /// Walks the layer sets from length 1 to their first repeat.
  LayerCycle layer_cycle() const;

 private:
  TransitionSystem ts_;
  std::vector<MonoidElement> elements_;
  // extend table: elements x inputs -> element index
  std::vector<std::size_t> extend_table_;
  std::vector<std::size_t> reversed_;
  // BFS tree: element -> (parent element or npos for seeds, appended sigma)
  std::vector<std::pair<std::size_t, Label>> parent_;
  // Seed indices: of_symbol(sigma) == symbol_index_[sigma].
  std::vector<std::size_t> symbol_index_;
};

/// Memo cache for enumerated monoids (core/memo_cache.hpp), keyed by
/// TransitionSystem::canonical_hash()/canonical_key(). A hit is a
/// semantically identical skeleton (same matrices and topology; label and
/// problem names may differ — anything printed through a shared monoid's
/// transitions().problem() shows the first builder's cosmetic names).
/// Budget overflows are never cached: enumerate() throws before insert(),
/// so a retry with a bigger budget recomputes. classify() erase()s a
/// monoid it inserted when the classification is subsequently cancelled —
/// cancelled runs leave no trace of the poisoned problem in shared caches.
/// See ClassifyOptions::monoid_cache.
using MonoidCache = MemoCache<Monoid>;

}  // namespace lclpath
