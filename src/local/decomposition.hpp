// Ruling sets and the Lemma 16 decomposition.
//
// The synthesized Theta(log* n) algorithms (Lemma 17) need separator
// blocks of 2r nodes whose gaps are Theta(ell_pump) with both bounds
// controlled. We build a *ruling set* with consecutive-member distances in
// [m, 2m] for a power-of-two m:
//
//   level 0: Cole-Vishkin 3-coloring + greedy MIS -> gaps in [2, 3];
//   level j: MIS on the subcycle of level-(j-1) members (Cole-Vishkin on
//            the member subsequence: 64-bit IDs need only 4 halvings),
//            doubling the minimum gap, followed by a local *repair* pass
//            that splits any gap longer than 2m_j by inserting synthetic
//            members at multiples of m_j from the left anchor — keeping
//            the maximum gap below 2x the minimum at every level.
//
// ruling_members_segment computes every member of a window (or of one
// oriented segment of it) at once, so locality holds by construction: a
// member flag at least ruling_radius() from both non-real window edges
// depends only on the IDs within that radius (window-agreement
// property-tested). Each level is one Cole-Vishkin coloring plus one
// sequential pass: level 0 over the window, level j over the sorted
// position list of the level-(j-1) members, which the greedy MIS (a node
// joins unless an earlier-phase neighbor joined; its lookahead is at most
// two nodes) and the repair rewrite into the next level's list. Every
// buffer lives in a caller-owned RulingScratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "local/instance.hpp"

namespace lclpath {

/// Number of doubling levels needed for a minimum gap >= min_gap.
std::size_t ruling_levels(std::size_t min_gap);

/// Final guaranteed gap bounds [m, 2m] with m = 2^levels.
std::size_t ruling_min_gap(std::size_t min_gap);

/// Window margin that makes a member flag stable: a flag at least this far
/// from both non-real window edges is the same in every window holding it.
std::size_t ruling_radius(std::size_t min_gap);

/// The buffers ruling_members_segment works in. A caller that runs it on
/// many segments passes the same scratch every time, so only segments
/// longer than all before them allocate.
struct RulingScratch {
  std::vector<std::uint64_t> color;  ///< Cole-Vishkin colors
  std::vector<NodeId> sub_ids;       ///< the current members' IDs
  std::vector<std::size_t> next;     ///< the next level's member positions
};

/// Positions (window-relative, ascending) of the members of the ruling set
/// with gap bounds [ruling_min_gap(min_gap), 2 * ruling_min_gap(min_gap)],
/// written into `members`. Member flags are trusted only at least
/// ruling_radius(min_gap) from a non-real window edge. Either array edge
/// may be a *real* boundary (a path end, or an orientation flip that the
/// undirected synthesis strategies treat as one): on a real side the
/// Cole-Vishkin recursion anchors at the edge and the repair pass measures
/// gaps from it, so member flags are trusted all the way to that side and
/// the distance from the boundary to the nearest member stays below 2m.
void ruling_members_segment(std::span<const NodeId> ids, std::size_t min_gap, bool left_real,
                            bool right_real, std::vector<std::size_t>& members,
                            RulingScratch& scratch);

}  // namespace lclpath
