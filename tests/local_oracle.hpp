// Differential oracles for the §4 window kernels of src/local/: the
// multi-pass forms the library ran before its one-pass kernels, kept
// verbatim in behavior. local_test compares the library kernels with them
// position by position (member flags, directions, claims), margins
// included.
//
//   * ruling_members: Cole-Vishkin + a greedy MIS that walks the window
//     once per color class, then one doubling level per pass over
//     len-sized member / next-member flag arrays;
//   * orientation_directions: a deque sliding argmax plus nearest-peak
//     sweeps, in fresh vectors;
//   * claim_periodic_runs: one PeriodicRun record per position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "local/cole_vishkin.hpp"
#include "local/decomposition.hpp"
#include "local/orientation.hpp"
#include "local/partition.hpp"

namespace lclpath::oracle {

/// Greedy MIS by color class: for phase 0, 1, 2 in turn, every node of
/// that color joins unless a neighbor already did.
inline std::vector<char> greedy_mis(const std::vector<std::uint64_t>& color, std::size_t len) {
  std::vector<char> member(len, 0);
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    for (std::size_t i = 0; i < len; ++i) {
      if (color[i] != phase || member[i]) continue;
      const bool lb = i > 0 && member[i - 1];
      const bool rb = i + 1 < len && member[i + 1];
      if (!lb && !rb) member[i] = 1;
    }
  }
  return member;
}

/// One doubling level: MIS on the member subsequence, then the repair that
/// inserts synthetic members at multiples of new_min after each anchor
/// (real boundaries are virtual anchors just outside the window).
inline void double_level(std::span<const NodeId> ids, std::vector<char>& member,
                         std::size_t new_min, bool left_real, bool right_real) {
  const std::size_t len = ids.size();
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < len; ++i) {
    if (member[i]) pos.push_back(i);
  }
  if (pos.size() < 2 && !left_real && !right_real) return;
  std::vector<char> sub_member(pos.size(), 1);
  if (pos.size() >= 2) {
    std::vector<NodeId> sub_ids;
    for (std::size_t p : pos) sub_ids.push_back(ids[p]);
    std::vector<std::uint64_t> color;
    cv_colors_window(sub_ids, left_real, right_real, color);
    sub_member = greedy_mis(color, pos.size());
  }
  std::vector<char> out(len, 0);
  std::vector<std::ptrdiff_t> anchors;
  if (left_real) anchors.push_back(-1);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (sub_member[i]) {
      out[pos[i]] = 1;
      anchors.push_back(static_cast<std::ptrdiff_t>(pos[i]));
    }
  }
  if (right_real) anchors.push_back(static_cast<std::ptrdiff_t>(len));
  for (std::size_t i = 0; i + 1 < anchors.size(); ++i) {
    const std::ptrdiff_t u = anchors[i];
    const std::ptrdiff_t v = anchors[i + 1];
    const std::ptrdiff_t step = static_cast<std::ptrdiff_t>(new_min);
    for (std::ptrdiff_t p = u + step; p + step <= v; p += step) {
      if (p >= 0 && p < static_cast<std::ptrdiff_t>(len)) out[static_cast<std::size_t>(p)] = 1;
    }
  }
  member.swap(out);
}

/// Member flags of the ruling set over a window, as ruling_members_segment
/// defines them.
inline std::vector<char> ruling_members(std::span<const NodeId> ids, std::size_t min_gap,
                                        bool left_real, bool right_real) {
  std::vector<std::uint64_t> color;
  cv_colors_window(ids, left_real, right_real, color);
  std::vector<char> member = greedy_mis(color, ids.size());
  std::size_t m = 2;
  for (std::size_t level = 0; level < ruling_levels(min_gap); ++level) {
    m *= 2;
    double_level(ids, member, m, left_real, right_real);
  }
  return member;
}

/// Window directions of the ell-orientation (peak / nearest peak / ball
/// maximum, scale L = 2 ell + 2), as orientation_directions_window
/// defines them.
inline std::vector<Direction> orientation_directions(const std::vector<NodeId>& ids,
                                                     std::size_t ell) {
  const std::size_t len = ids.size();
  const std::size_t scale = 2 * ell + 2;
  std::vector<Direction> out(len, Direction::kForward);
  if (len == 0) return out;
  std::vector<std::size_t> ball_max(len, 0);
  const auto all = [](std::size_t) { return true; };
  const auto id_less = [&ids](std::size_t a, std::size_t b) { return ids[a] < ids[b]; };
  const auto record = [&ball_max](std::size_t p, std::size_t best) { ball_max[p] = best; };
  std::vector<std::size_t> deque;
  sliding_window_argmax(len, scale, all, id_less, record, deque);
  std::vector<char> peak(len, 0);
  for (std::size_t p = 0; p < len; ++p) peak[p] = ball_max[p] == p ? 1 : 0;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> peak_before(len, kNone);
  std::vector<std::size_t> peak_after(len, kNone);
  for (std::size_t p = 0; p < len; ++p) {
    if (peak[p]) {
      peak_before[p] = p;
    } else if (p > 0) {
      peak_before[p] = peak_before[p - 1];
    }
  }
  for (std::size_t p = len; p-- > 0;) {
    if (peak[p]) {
      peak_after[p] = p;
    } else if (p + 1 < len) {
      peak_after[p] = peak_after[p + 1];
    }
  }
  for (std::size_t p = 0; p < len; ++p) {
    if (peak[p]) {
      const bool fwd = p + 1 < len && (p == 0 || ids[p + 1] > ids[p - 1]);
      out[p] = fwd ? Direction::kForward : Direction::kBackward;
      continue;
    }
    const std::size_t dl = peak_before[p] != kNone ? p - peak_before[p] : kNone;
    const std::size_t dr = peak_after[p] != kNone ? peak_after[p] - p : kNone;
    const bool left_ok = dl <= scale;
    const bool right_ok = dr <= scale;
    if (left_ok || right_ok) {
      bool fwd;
      if (left_ok && right_ok && dl == dr) {
        fwd = ids[peak_after[p]] > ids[peak_before[p]];
      } else if (!left_ok || (right_ok && dr < dl)) {
        fwd = true;
      } else {
        fwd = false;
      }
      out[p] = fwd ? Direction::kForward : Direction::kBackward;
      continue;
    }
    out[p] = ball_max[p] > p ? Direction::kForward : Direction::kBackward;
  }
  return out;
}

/// The claim of one position: the maximal run [begin, end) of period
/// `period` (0: unclaimed) and its margin.
struct PositionClaim {
  std::size_t period = 0;
  std::size_t begin = 0, end = 0;
  std::size_t margin = 0;
  bool operator==(const PositionClaim&) const = default;
};

using ClaimRule = std::function<std::optional<std::size_t>(std::size_t q, std::size_t begin,
                                                            std::size_t end)>;

/// Lemma 21's run scan with one record per position: for q = 1..max_period
/// every maximal run is offered to the rule, an accepted run claims its
/// still-unclaimed positions, and the scan stops once every position is
/// claimed.
inline std::vector<PositionClaim> claim_periodic_runs(std::span<const Label> in,
                                                      std::size_t max_period,
                                                      const ClaimRule& rule) {
  const std::size_t n = in.size();
  std::vector<PositionClaim> claim(n);
  std::size_t unclaimed = n;
  for (std::size_t q = 1; q <= max_period && unclaimed != 0; ++q) {
    std::size_t i = 0;
    while (i + q < n && unclaimed != 0) {
      if (in[i] != in[i + q]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + q < n && in[j] == in[j + q]) ++j;
      const std::size_t begin = i;
      const std::size_t end = j + q;
      if (const std::optional<std::size_t> margin = rule(q, begin, end)) {
        for (std::size_t k = begin; k < end; ++k) {
          if (claim[k].period == 0) {
            claim[k] = PositionClaim{q, begin, end, *margin};
            --unclaimed;
          }
        }
      }
      i = j + 1;
    }
  }
  return claim;
}

}  // namespace lclpath::oracle
