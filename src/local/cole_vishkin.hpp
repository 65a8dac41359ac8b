// Cole-Vishkin color reduction on directed cycles and paths [8, 16, 20 in
// the paper's references].
//
// This is the O(log* n) building block behind Lemma 16 (the ruling set of
// local/decomposition.hpp, which the synthesized Theta(log* n) algorithm
// places its separator blocks on). It runs on a whole window of IDs at
// once: the color at each trusted position is exactly what the
// message-passing algorithm computes there in cv_steps_for_ids() + 3
// rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "local/instance.hpp"

namespace lclpath {

/// Number of Cole-Vishkin halving steps needed to bring 64-bit IDs down to
/// the 6-color fixed point.
std::size_t cv_steps_for_ids();

/// One Cole-Vishkin step: the new color of a node with color `mine` whose
/// successor has color `next` (colors must differ).
std::uint64_t cv_step(std::uint64_t mine, std::uint64_t next);

/// The full Cole-Vishkin pipeline (halvings + three shrink rounds) over a
/// window of IDs, returning colors in {0, 1, 2}. Colors are trusted within
/// cv_steps_for_ids() + 3 of each window edge — except at a *real*
/// boundary (`left_end` / `right_end`: a path end, or an orientation flip
/// treated as one by the undirected synthesis strategies), where the
/// recursion anchors and colors are trusted all the way to that side.
/// Writes the colors into `color`, updating it in place round by round;
/// it keeps its capacity, so a caller coloring many windows allocates it
/// once.
void cv_colors_window(std::span<const NodeId> ids, bool left_end, bool right_end,
                      std::vector<std::uint64_t>& color);

}  // namespace lclpath
