// Pumping lemmas for input-labeled paths (Lemmas 14 and 15).
//
// Lemma 14: any word of length >= ell_pump decomposes as x ◦ y ◦ z with
// |xy| <= ell_pump + margin, |y| >= 1, and Type(x ◦ y^i ◦ z) = Type(w) for
// every i >= 0. We find the repeat among *monoid elements* of prefixes
// (which refine types), keeping a margin of 2 symbols on each side so the
// boundary inputs of the type are untouched.
//
// Lemma 15: for any word w there are a, b with a + b <= ell_pump + 1 such
// that Type(w^{a + b*i}) is invariant over i >= 0; we return the repeat in
// the power sequence of the element of w.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "automata/monoid.hpp"

namespace lclpath {

struct PumpDecomposition {
  Word x, y, z;

  Word pumped(std::size_t i) const;  ///< x ◦ y^i ◦ z
};

/// Lemma 14. Returns std::nullopt if w is too short to contain a repeated
/// interior prefix element (|w| <= ell_pump + 4 may still succeed; longer
/// words always do).
std::optional<PumpDecomposition> pump_decomposition(const Monoid& monoid, const Word& w);

/// The split behind pump_decomposition as prefix lengths (p1, p2): x =
/// w[0, p1), y = w[p1, p2), z = w[p2, |w|). `first_seen` is scratch indexed
/// by monoid element; it must hold monoid.size() entries equal to
/// kNotSeen on entry and is left that way, so one buffer serves many
/// calls without allocating.
inline constexpr std::size_t kNotSeen = static_cast<std::size_t>(-1);
std::optional<std::pair<std::size_t, std::size_t>> pump_split(
    const Monoid& monoid, std::span<const Label> w, std::vector<std::size_t>& first_seen);

/// Pumps w (if possible) until its length is at least min_length,
/// preserving the monoid element (hence the type). Returns w itself when
/// already long enough; std::nullopt when no decomposition exists.
std::optional<Word> pump_to_length(const Monoid& monoid, const Word& w,
                                   std::size_t min_length);

struct PowerPump {
  std::size_t a = 0;  ///< first exponent of the cycle
  std::size_t b = 0;  ///< cycle length: element(w^{a}) == element(w^{a+b})
};

/// Lemma 15: the repeat structure of the powers of w's element.
PowerPump power_pump(const Monoid& monoid, const Word& w);

}  // namespace lclpath
