// The primitives of Section 4.3's partition (Lemmas 20, 21, 22), as the
// O(1) synthesized algorithm (decide/synthesized.cpp) runs them on each
// oriented segment of its window:
//   * claim_periodic_runs: maximal period-q runs, shortest period first,
//     each accepted or rejected by a caller-supplied claim rule (Lemma 21's
//     long periodic components);
//   * window_maxima / sliding_window_argmax: the sliding-window argmax
//     behind Lemma 20's independent set (the synthesizer's seeds) and the
//     ell-orientation's ball maxima;
//   * least_rotation: a periodic run's canonical pattern and phase.
//
// Lemma 20's O(1)-round independent set exploits input irregularity: in a
// region with no period-<= gamma run of length >= l, length-l input
// windows are distinct within distance gamma, so window-lexicographic
// local maxima break symmetry without IDs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
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

/// Window maxima: member[p] iff p is eligible and no eligible position
/// within distance `radius` is strictly larger under `less`. Writes n
/// flags into `member` (capacity reused) with `deque` as the argmax
/// scratch.
///
/// The guarantee is independence only: two members within `radius` of each
/// other compare equal, so where the compared keys are distinct within
/// distance `radius` (Lemma 20's irregular stretches) members are more than
/// `radius` apart. There is NO domination bound: a non-member's larger
/// neighbor may itself be dominated, and a run of increasing keys leaves
/// arbitrarily long stretches without a member.
template <class Eligible, class Less>
void window_maxima(std::size_t n, std::size_t radius, Eligible eligible, Less less,
                   std::vector<char>& member, std::vector<std::size_t>& deque) {
  member.assign(n, 0);
  const auto visit = [&](std::size_t p, std::size_t best) {
    member[p] = eligible(p) && !less(p, best) ? 1 : 0;
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

/// A maximal periodic input run [begin, end) claimed with period `period`
/// (0: the position is unclaimed), plus the margin its claim rule assigned.
struct PeriodicRun {
  std::size_t period = 0;
  std::size_t begin = 0, end = 0;
  std::size_t margin = 0;
};

/// Claim rule: the margin of the run [begin, end) of period q, or nullopt
/// to leave it unclaimed.
using ClaimRule = std::function<std::optional<std::size_t>(std::size_t q, std::size_t begin,
                                                            std::size_t end)>;

/// Lemma 21's run scan. For q = 1..max_period, finds every maximal run
/// [begin, end) with in[i] == in[i + q] for begin <= i < end - q and asks
/// the rule for it; an accepted run claims its still-unclaimed positions,
/// so shorter periods claim first; once every position is claimed the
/// scan stops, asking about no further runs. Writes the claim per
/// position into `claim` (capacity reused).
void claim_periodic_runs(std::span<const Label> in, std::size_t max_period,
                         const ClaimRule& rule, std::vector<PeriodicRun>& claim);

/// The smallest shift s such that the rotation w[s..] w[..s] of the
/// non-empty word w is lexicographically least.
std::size_t least_rotation(std::span<const Label> w);

}  // namespace lclpath
