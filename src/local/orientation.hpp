// ell-orientation of a cycle in O(ell) rounds (Lemma 19, cited by the
// paper from [6] = Chang & Pettie 2017).
//
// Construction (ours; the paper does not spell one out). With the
// internal scale L = 2*ell + 2:
//   * a node is a *peak* if its ID is the maximum in its radius-L ball;
//   * a node within distance L of a peak orients toward its nearest peak
//     (equidistant ties toward the larger peak ID); peaks orient toward
//     their larger neighbor (pure convergence points);
//   * other nodes orient toward the maximum-ID node of their radius-L ball.
//
// Invariant (argued in orientation.cpp, property-tested on adversarial
// monotone/zigzag/random ID patterns): every maximal uniformly-oriented
// run has at least ell nodes — peak watersheds sit >= (L+1)/2 > ell from
// both peaks, and ball-max divergences force >= L dominated, uniformly
// oriented nodes on each side. Only windows smaller than the instance are
// oriented: the synthesized algorithms answer an instance-covering view
// with the canonical full-view solve, which needs no orientation.
//
// The window kernel makes four sequential, mostly branch-free passes over
// two caller-owned buffers: a block (van Herk / Gil-Werman) sliding
// maximum of width L, whose entries give each position's left and right
// half-ball maxima; a forward pass that marks peaks and the peakless
// direction; and a backward pass that applies the nearest-peak rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "local/instance.hpp"

namespace lclpath {

enum class Direction : std::uint8_t { kForward, kBackward };

/// Window margin consumed by orientation_directions_window: directions at
/// positions within this margin of a non-real window edge are not
/// meaningful.
std::size_t orientation_window_margin(std::size_t ell);

/// The buffers orientation_directions_window works in, reused across
/// windows: only a window longer than all before it allocates.
struct OrientationScratch {
  /// Block prefix maxima, then the nearest peak at or before each position.
  std::vector<std::uint64_t> prefix;
  /// max(ids[s], ..., ids[s + L - 1]), clipped at the window's right edge.
  std::vector<NodeId> width_max;
};

/// Per-position directions over a whole window of IDs by the peak /
/// nearest-peak / ball-max rule, in O(len) total, written into `out`
/// (the synthesized undirected algorithms need every position of a large
/// window). IDs must be distinct. Directions are relative to the window's
/// presentation order and the rule is equivariant under reversing it, so
/// two observers with opposite presentations of the same cycle segment
/// derive the same physical orientation. Balls are truncated at the
/// array edges; that is exact where the edge is a real path end (there
/// simply are no nodes beyond it) and it is why directions within
/// orientation_window_margin() of a mere window edge are untrusted.
void orientation_directions_window(std::span<const NodeId> ids, std::size_t ell,
                                   std::vector<Direction>& out, OrientationScratch& scratch);

}  // namespace lclpath
