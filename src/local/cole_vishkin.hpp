// Cole-Vishkin color reduction and derived symmetry breaking
// on directed cycles and paths [8, 16, 20 in the paper's references].
//
// These are the O(log* n) building blocks behind Lemma 16 (the
// decomposition used by the synthesized Theta(log* n) algorithm) and the
// lower-bound benchmarks. Everything is phrased in view form: the
// functions compute, from a node's radius-T window, exactly what the
// message-passing algorithm would know after T rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "local/simulator.hpp"

namespace lclpath {

/// Number of Cole-Vishkin halving steps needed to bring 64-bit IDs down to
/// the 6-color fixed point.
std::size_t cv_steps_for_ids();

/// View radius required by three_coloring (CV steps + 3 shrink rounds).
std::size_t cv_radius();

/// One Cole-Vishkin step: the new color of a node with color `mine` whose
/// successor has color `next` (colors must differ).
std::uint64_t cv_step(std::uint64_t mine, std::uint64_t next);

/// The full Cole-Vishkin pipeline (halvings + three shrink rounds) over a
/// window of IDs, returning colors in {0, 1, 2}. Colors are trusted within
/// cv_radius() of each window edge — except at a *real* boundary
/// (`left_end` / `right_end`: a path end, or an orientation flip treated
/// as one by the undirected synthesis strategies), where the recursion
/// anchors and colors are trusted all the way to that side.
/// Writes the colors into `color`, updating it in place round by round;
/// it keeps its capacity, so a caller coloring many windows allocates it
/// once.
void cv_colors_window(std::span<const NodeId> ids, bool left_end, bool right_end,
                      std::vector<std::uint64_t>& color);
/// cv_colors_window returning fresh colors.
std::vector<std::uint64_t> cv_colors_window(const std::vector<NodeId>& ids,
                                            bool left_end, bool right_end);

/// Computes the 3-coloring color of the view's center node on a directed
/// cycle or path. Total radius used: cv_radius(). On paths the last node
/// (no successor) anchors the recursion with color 0 or 1.
/// The result is in {0, 1, 2} and adjacent nodes get distinct colors.
std::size_t cv_three_color(const View& view);

/// Distance-k independent-set flag for the center node, derived from the
/// 3-coloring: greedy by color class, a node joins if no already-joined
/// node lies within distance k. Maximality: every node has a joined node
/// within distance k. Radius: cv_radius() + 3k.
bool cv_spaced_mis(const View& view, std::size_t k);

/// Radius needed by cv_spaced_mis.
std::size_t cv_spaced_mis_radius(std::size_t k);

}  // namespace lclpath
