#include "local/orientation.hpp"

#include "local/partition.hpp"

namespace lclpath {

namespace {
/// Internal scale: peaks are radius-L ID maxima with L = 2*ell + 2, so
/// that nearest-peak watersheds between two peaks (distance >= L+1) are
/// at least (L+1)/2 > ell from both.
std::size_t internal_scale(std::size_t ell) { return 2 * ell + 2; }
}  // namespace

std::size_t orientation_window_margin(std::size_t ell) {
  // A position evaluates is-peak for every node within distance L, which
  // reads IDs within 2L of it.
  return 2 * internal_scale(ell) + 1;
}

// Construction (validated by the adversarial property tests):
//  * peak: maximum ID within radius L;
//  * a node within distance L of a peak orients toward its *nearest* peak
//    (ties between equidistant peaks broken toward the larger ID); peaks
//    themselves orient toward their larger neighbor;
//  * other nodes orient toward the maximum-ID node of their radius-L ball.
// Direction flips then happen only at peak watersheds (>= (L+1)/2 > ell
// from each peak) or at ball-max divergences whose dominating endpoint
// forces >= L uniformly oriented nodes on each side. Every ball and peak
// a position's rule reads lies within 2L of it, so the edge truncation
// never reaches a position orientation_window_margin() from the edge.
std::vector<Direction> orientation_directions_window(const std::vector<NodeId>& ids,
                                                     std::size_t ell) {
  const std::size_t len = ids.size();
  const std::size_t scale = internal_scale(ell);
  std::vector<Direction> out(len, Direction::kForward);
  if (len == 0) return out;

  // ball_max[p] = position of the maximum ID in [p - scale, p + scale]
  // (clamped at array edges); IDs are distinct, so the maximum is unique.
  std::vector<std::size_t> ball_max(len, 0);
  const auto all = [](std::size_t) { return true; };
  const auto id_less = [&ids](std::size_t a, std::size_t b) { return ids[a] < ids[b]; };
  const auto record = [&ball_max](std::size_t p, std::size_t best) { ball_max[p] = best; };
  std::vector<std::size_t> deque;
  sliding_window_argmax(len, scale, all, id_less, record, deque);

  // Peaks: radius-scale ball maxima. Balls truncate at the array edges —
  // exact at a real path end (no nodes exist beyond it), untrusted within
  // orientation_window_margin() of a mere window edge (the caller's
  // radius accounts for that).
  std::vector<char> peak(len, 0);
  for (std::size_t p = 0; p < len; ++p) peak[p] = ball_max[p] == p ? 1 : 0;

  // Nearest peak at or before / after each position (single sweeps).
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
      // A peak orients toward its larger neighbor (missing neighbors at a
      // clamped path end count as smaller than everything).
      const bool fwd = p + 1 < len && (p == 0 || ids[p + 1] > ids[p - 1]);
      out[p] = fwd ? Direction::kForward : Direction::kBackward;
      continue;
    }
    const std::size_t dl =
        peak_before[p] != kNone ? p - peak_before[p] : static_cast<std::size_t>(-1);
    const std::size_t dr =
        peak_after[p] != kNone ? peak_after[p] - p : static_cast<std::size_t>(-1);
    const bool left_ok = dl <= scale;
    const bool right_ok = dr <= scale;
    if (left_ok || right_ok) {
      bool fwd;
      if (left_ok && right_ok && dl == dr) {
        fwd = ids[peak_after[p]] > ids[peak_before[p]];  // tie: larger peak ID
      } else if (!left_ok || (right_ok && dr < dl)) {
        fwd = true;
      } else {
        fwd = false;
      }
      out[p] = fwd ? Direction::kForward : Direction::kBackward;
      continue;
    }
    // Peakless zone: toward the ball maximum.
    out[p] = ball_max[p] > p ? Direction::kForward : Direction::kBackward;
  }
  return out;
}

}  // namespace lclpath
