// The primitives of Section 4.3's partition (Lemmas 20, 21, 22), as the
// O(1) synthesized algorithm (decide/synthesized.cpp) runs them on each
// oriented segment of its window:
//   * claim_periodic_runs: maximal period-q runs, shortest period first,
//     each accepted or rejected by a caller-supplied claim rule (Lemma 21's
//     long periodic components). One comparison pass per period; the
//     result is the ascending list of claimed stretches;
//   * window_maxima / sliding_window_argmax: the sliding-window argmax
//     behind Lemma 20's independent set (the synthesizer's seeds), one
//     monotonic deque in a caller-owned buffer;
//   * least_rotation: a periodic run's canonical pattern and phase.
//
// Lemma 20's O(1)-round independent set exploits input irregularity: in a
// region with no period-<= gamma run of length >= l, length-l input
// windows are distinct within distance gamma, so window-lexicographic
// local maxima break symmetry without IDs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/alphabet.hpp"

namespace lclpath {

/// Sliding-window argmax. For every p in [0, n) calls visit(p, best), where
/// best is the leftmost maximum under `less` among the eligible positions
/// in [p - radius, p + radius] (clamped to [0, n)), or n when none is
/// eligible. O(n) comparisons through one monotonic deque kept in
/// `deque` (grown to n, never shrunk, so a caller sweeping many windows
/// allocates it once); `eligible` and `less` are inlined.
template <class Eligible, class Less, class Visit>
void sliding_window_argmax(std::size_t n, std::size_t radius, Eligible eligible, Less less,
                           Visit visit, std::vector<std::size_t>& deque) {
  if (deque.size() < n) deque.resize(n);  // [head, tail), non-increasing under less
  std::size_t head = 0, tail = 0, next = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t hi = radius >= n - 1 - p ? n - 1 : p + radius;
    for (; next <= hi; ++next) {
      if (!eligible(next)) continue;
      while (tail > head && less(deque[tail - 1], next)) --tail;
      deque[tail++] = next;
    }
    const std::size_t lo = p >= radius ? p - radius : 0;
    while (tail > head && deque[head] < lo) ++head;
    visit(p, tail > head ? deque[head] : n);
  }
}

/// Window maxima: the eligible positions p that no eligible position
/// within distance `radius` exceeds strictly under `less`, written in
/// ascending order into `members` (capacity reused) with `deque` as the
/// argmax scratch.
///
/// The guarantee is independence only: two members within `radius` of each
/// other compare equal, so where the compared keys are distinct within
/// distance `radius` (Lemma 20's irregular stretches) members are more than
/// `radius` apart. There is NO domination bound: a non-member's larger
/// neighbor may itself be dominated, and a run of increasing keys leaves
/// arbitrarily long stretches without a member.
template <class Eligible, class Less>
void window_maxima(std::size_t n, std::size_t radius, Eligible eligible, Less less,
                   std::vector<std::size_t>& members, std::vector<std::size_t>& deque) {
  members.clear();
  const auto visit = [&](std::size_t p, std::size_t best) {
    if (eligible(p) && !less(p, best)) members.push_back(p);
  };
  sliding_window_argmax(n, radius, eligible, less, visit, deque);
}

/// Lexicographic order on the length-l windows of `word`, by start position
/// (both windows must fit inside the word). Captures `word` by reference.
inline auto window_less(const Word& word, std::size_t l) {
  return [&word, l](std::size_t a, std::size_t b) {
    const auto at = [&word](std::size_t i) {
      return word.begin() + static_cast<std::ptrdiff_t>(i);
    };
    return std::lexicographical_compare(at(a), at(a + l), at(b), at(b + l));
  };
}

/// A claimed stretch [from, to): positions claimed by the maximal periodic
/// input run [begin, end) of period `period`, with the margin its claim
/// rule assigned. A run claims only positions no earlier run claimed, so
/// one run may leave several stretches.
struct PeriodicRun {
  std::size_t period = 0;
  std::size_t begin = 0, end = 0;
  std::size_t margin = 0;
  std::size_t from = 0, to = 0;
};

/// Lemma 21's run scan. For q = 1..max_period, finds every maximal run
/// [begin, end) with in[i] == in[i + q] for begin <= i < end - q and asks
/// rule(q, begin, end) for it: the run's margin, or nullopt to leave it
/// unclaimed (a std::optional<std::size_t>). An accepted run claims its
/// still-unclaimed positions, so shorter periods claim first; once every
/// position is claimed the scan stops, asking about no further runs.
/// Writes the claimed stretches into `claims` (capacity reused), ascending
/// and disjoint; positions in none are unclaimed.
template <class Rule>
void claim_periodic_runs(std::span<const Label> in, std::size_t max_period, Rule&& rule,
                         std::vector<PeriodicRun>& claims) {
  const std::size_t n = in.size();
  claims.clear();
  std::size_t unclaimed = n;
  for (std::size_t q = 1; q <= max_period && unclaimed != 0; ++q) {
    // Runs of one period come with ascending begins and ends, so they meet
    // the earlier periods' stretches, claims[0, earlier), in order (one
    // cursor) and overlap this period's claims only below the last
    // accepted end. This period's stretches are appended, then sorted in.
    const std::size_t earlier = claims.size();
    std::size_t cursor = 0;
    std::size_t claimed_to = 0;
    std::size_t i = 0;
    while (i + q < n && unclaimed != 0) {
      if (in[i] != in[i + q]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + q < n && in[j] == in[j + q]) ++j;
      const std::size_t begin = i;
      const std::size_t end = j + q;  // exclusive
      if (const std::optional<std::size_t> margin = rule(q, begin, end)) {
        for (std::size_t pos = std::max(begin, claimed_to); pos < end;) {
          while (cursor < earlier && claims[cursor].to <= pos) ++cursor;
          if (cursor < earlier && claims[cursor].from <= pos) {
            pos = claims[cursor].to;
            continue;
          }
          const std::size_t stop = cursor < earlier ? std::min(end, claims[cursor].from) : end;
          claims.push_back(PeriodicRun{q, begin, end, *margin, pos, stop});
          unclaimed -= stop - pos;
          pos = stop;
        }
        claimed_to = end;
      }
      i = j + 1;
    }
    if (claims.size() > earlier) std::ranges::sort(claims, {}, &PeriodicRun::from);
  }
}

/// The smallest shift s such that the rotation w[s..] w[..s] of the
/// non-empty word w is lexicographically least.
std::size_t least_rotation(std::span<const Label> w);

}  // namespace lclpath
