// The validated hot-reload serve loop over a catalog directory.
//
// CatalogServer watches a store directory and keeps an immutable
// StoreSnapshot current, with the subscription/validate/swap shape of
// Envoy's SdsApi: a changed shard file is parsed and checksummed fully
// off to the side, and only a shard that validates end-to-end is swapped
// in — RCU-style, via a shared_ptr swap, so in-flight readers holding the
// previous snapshot() keep a consistent view for as long as they need it.
// A poll costs in proportion to the shards that changed: an unchanged
// shard is neither re-read nor re-keyed, and the new snapshot shares its
// records with the old one.
// An invalid update (torn tail, bit flip, unknown version, hostile bytes,
// injected load fault) is *rejected*: the rejection is counted and
// reported, and the server keeps answering every lookup from the last
// good state. A rejected shard is retried automatically once its file
// changes again.
//
// Thread model: poll() is single-threaded (one poller — the serve loop);
// snapshot() and the counters are safe from any number of concurrent
// reader threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/store.hpp"

namespace lclpath::store {

/// What one poll() pass did.
struct ReloadReport {
  std::size_t reloaded = 0;   ///< shards validated and swapped in
  std::size_t rejected = 0;   ///< shards that failed validation (old state kept)
  std::size_t unchanged = 0;  ///< shards whose stat was untouched
  std::size_t removed = 0;    ///< shard files that disappeared
  /// Human-readable "file: what happened" lines for reloads/rejections.
  std::vector<std::string> notes;

  bool changed() const { return reloaded > 0 || removed > 0; }
};

class CatalogServer {
 public:
  explicit CatalogServer(std::string directory);

  /// One watch pass: stats every shard file, validates anything new or
  /// changed off to the side, then publishes a fresh snapshot if (and
  /// only if) at least one shard validated or disappeared. The first
  /// call is the initial load.
  ReloadReport poll();

  /// The current snapshot (RCU read). Never null; empty before the first
  /// poll(). Callers keep the returned pointer for a whole request so
  /// every lookup within it is consistent, even across a concurrent swap.
  std::shared_ptr<const StoreSnapshot> snapshot() const;

  const std::string& directory() const { return directory_; }
  /// Bumped on every published swap.
  std::uint64_t generation() const { return generation_.load(std::memory_order_relaxed); }
  std::uint64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }
  std::uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

 private:
  struct ShardState {
    std::int64_t mtime_ns = 0;
    std::uint64_t size = 0;
    /// Last *validated* content, keyed; kept across rejections of newer
    /// writes, and shared with every snapshot published since it loaded.
    /// Null while the file has never validated.
    std::shared_ptr<const KeyedRecords> records;
  };

  void publish();

  std::string directory_;
  /// Keyed by file path (sorted), so union order is deterministic.
  std::map<std::string, ShardState> shards_;
  mutable std::mutex mutex_;
  std::shared_ptr<const StoreSnapshot> snapshot_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> rejections_{0};
};

}  // namespace lclpath::store
