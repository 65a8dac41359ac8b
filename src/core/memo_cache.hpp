// A thread-safe memo cache of immutable shared values, keyed by a 64-bit
// hash plus the full key it was computed from.
//
// Hash collisions are resolved by comparing full keys, so a hit is always
// an entry inserted under an equal key. The first writer of a key wins: a
// later insert of the same key keeps the earlier value and hands it back,
// so concurrent misses still converge on one shared instance. Values are
// shared_ptrs, so erasing an entry never invalidates a value a caller
// already holds. Caches are caller-owned, which makes their lifetime (one
// CLI invocation, one server, one parameter sweep) an explicit policy
// decision. The monoid cache and the batch verdict cache
// (automata/monoid.hpp, decide/batch.hpp) are its two instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace lclpath {

template <class Value>
class MemoCache {
 public:
  /// The entry for (hash, key), or null. Counts a hit or a miss.
  std::shared_ptr<const Value> find(std::uint64_t hash, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [begin, end] = entries_.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
      if (it->second.first == key) {
        ++hits_;
        return it->second.second;
      }
    }
    ++misses_;
    return nullptr;
  }

  /// Inserts unless the key is already present (first writer wins) and
  /// returns the entry now in the cache — on a lost race that is the
  /// earlier writer's value, which the caller must adopt if it needs one
  /// shared instance.
  std::shared_ptr<const Value> insert(std::uint64_t hash, std::string key,
                                      std::shared_ptr<const Value> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [begin, end] = entries_.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
      if (it->second.first == key) return it->second.second;
    }
    auto it = entries_.emplace(hash, std::make_pair(std::move(key), std::move(value)));
    return it->second.second;
  }

  /// Removes the entry for (hash, key) if present; returns whether one was
  /// removed.
  bool erase(std::uint64_t hash, const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [begin, end] = entries_.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
      if (it->second.first == key) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_multimap<std::uint64_t,
                          std::pair<std::string, std::shared_ptr<const Value>>>
      entries_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace lclpath
