// First-seen ids without per-entry allocations.
//
// The deciders intern items (signatures, context classes, profiles) into
// tables they own and number them in first-seen order. The hash lookup
// over such a table is one flat slot array of ids, probed linearly from
// the hash; it is sized once for the most ids it will hold, so lookups
// never allocate or rehash, and resizing it for the next table reuses the
// storage.
#pragma once

#include <bit>
#include <cstddef>
#include <vector>

namespace lclpath {

inline constexpr std::size_t kNoId = static_cast<std::size_t>(-1);

/// Empties `slots` for at most `capacity` ids (load factor <= 1/2).
inline void reset_id_slots(std::vector<std::size_t>& slots, std::size_t capacity) {
  slots.assign(std::bit_ceil(2 * capacity + 1), kNoId);
}

/// The id recorded under `hash` whose item satisfies `equal(id)`; if there
/// is none, records `fresh` under `hash` and returns it.
template <typename Equal>
std::size_t find_or_add_id(std::vector<std::size_t>& slots, std::size_t hash,
                           std::size_t fresh, Equal&& equal) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    if (slots[i] == kNoId) {
      slots[i] = fresh;
      return fresh;
    }
    if (equal(slots[i])) return slots[i];
  }
}

/// The id recorded under `hash` whose item satisfies `equal(id)`, or kNoId.
template <typename Equal>
std::size_t find_id(const std::vector<std::size_t>& slots, std::size_t hash, Equal&& equal) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask; slots[i] != kNoId; i = (i + 1) & mask) {
    if (equal(slots[i])) return slots[i];
  }
  return kNoId;
}

}  // namespace lclpath
