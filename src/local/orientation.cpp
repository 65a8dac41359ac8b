#include "local/orientation.hpp"

#include <algorithm>

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
//
// IDs are distinct, so position p's ball [p - L, p + L] (clamped at the
// array edges) has its maximum at p exactly when ids[p] exceeds both
// half-ball maxima, left = max ids[p - L, p) and right = max ids(p, p + L];
// otherwise the maximum lies on the side whose half-ball maximum is the
// larger. Both half-balls are width-L windows, width_max[p - L] and
// width_max[p + 1], except the left one while p < L (a running prefix
// maximum) and empty sides at the two array edges.
void orientation_directions_window(std::span<const NodeId> ids, std::size_t ell,
                                   std::vector<Direction>& out, OrientationScratch& scratch) {
  const std::size_t len = ids.size();
  const std::size_t scale = internal_scale(ell);
  out.resize(len);
  if (len == 0) return;
  std::vector<std::uint64_t>& prefix = scratch.prefix;
  std::vector<NodeId>& width_max = scratch.width_max;
  if (prefix.size() < len) prefix.resize(len);
  if (width_max.size() < len) width_max.resize(len);

  // Block maxima over the blocks [kL, (k + 1)L): prefix maxima forward,
  // suffix maxima backward, so a width-L window, which meets at most two
  // blocks, is the maximum of one suffix and one prefix. Windows clipped
  // by the right edge take the running maximum from the edge instead.
  for (std::size_t b = 0; b < len; b += scale) {
    const std::size_t e = std::min(len, b + scale);
    NodeId run = 0;
    for (std::size_t i = b; i < e; ++i) prefix[i] = run = std::max(run, ids[i]);
  }
  NodeId suffix = 0;  // max ids over [s, end of s's block]
  NodeId tail = 0;    // max ids over [s, len)
  std::size_t offset = (len - 1) % scale;  // s minus the start of its block
  for (std::size_t s = len; s-- > 0;) {
    if (offset == scale - 1) suffix = 0;
    suffix = std::max(suffix, ids[s]);
    tail = std::max(tail, ids[s]);
    width_max[s] = s + scale <= len ? std::max(suffix, prefix[s + scale - 1]) : tail;
    offset = offset == 0 ? scale - 1 : offset - 1;
  }

  // Forward: peaks, each peak's direction (toward its larger neighbor; a
  // missing neighbor at a clamped edge counts as smaller than everything),
  // the peakless direction (toward the larger half-ball maximum) and, in
  // the dead prefix buffer, the nearest peak at or before each position.
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::vector<std::uint64_t>& peak_before = prefix;
  NodeId left_prefix = 0;  // max ids[0, p)
  std::uint64_t last_peak = kNone;
  for (std::size_t p = 0; p < len; ++p) {
    const NodeId id = ids[p];
    const bool has_left = p > 0;
    const bool has_right = p + 1 < len;
    const NodeId left = p >= scale ? width_max[p - scale] : left_prefix;
    const NodeId right = has_right ? width_max[p + 1] : 0;
    bool fwd;
    if ((!has_left || id > left) && (!has_right || id > right)) {
      last_peak = p;
      fwd = has_right && (!has_left || ids[p + 1] > ids[p - 1]);
    } else {
      fwd = !has_left || (has_right && right > left);
    }
    out[p] = fwd ? Direction::kForward : Direction::kBackward;
    peak_before[p] = last_peak;
    left_prefix = std::max(left_prefix, id);
  }

  // Backward: a non-peak within L of a peak orients toward the nearest one.
  std::uint64_t next_peak = kNone;
  for (std::size_t p = len; p-- > 0;) {
    const std::uint64_t before = peak_before[p];
    if (before == p) {
      next_peak = p;
      continue;
    }
    const std::uint64_t dl = before != kNone ? p - before : kNone;
    const std::uint64_t dr = next_peak != kNone ? next_peak - p : kNone;
    const bool left_ok = dl <= scale;
    const bool right_ok = dr <= scale;
    if (!left_ok && !right_ok) continue;
    const bool fwd = left_ok && right_ok && dl == dr ? ids[next_peak] > ids[before]
                                                     : !left_ok || (right_ok && dr < dl);
    out[p] = fwd ? Direction::kForward : Direction::kBackward;
  }
}

}  // namespace lclpath
