// The persistent result store: a directory of shard files behind the
// in-memory BatchCache.
//
// Records are keyed by the exact BatchCache identity (canonical problem
// key + cache_identity_suffix()), sharded by key hash into
// `shard-NNNN.lcls` files. The store is the durable side of the catalog
// service the ROADMAP asks for: millions of classifications cold-start as
// a directory read plus warm_start() into a BatchCache — zero decider
// runs, and the preloaded Verdicts print exactly as fresh ones — and
// survive crashes because every shard commit is atomic
// (store/shard.hpp's persistence contract).
//
// PERSISTENCE CONTRACT (directory level)
//
//   * load() unions every valid `*.lcls` shard; dirty shards (bad
//     checksum, truncated tail, unknown version, hostile bytes) are
//     skipped and reported — "shard dirty" means "re-classify those
//     problems incrementally", never a crash. Records are
//     self-describing, so a layout change (different shard_count) merely
//     redistributes them; duplicate keys across files dedupe on load.
//   * commit() rewrites only the shards put() touched, each atomically.
//     A failed commit leaves every shard file old-complete or
//     new-complete; retrying the commit is always safe.
//   * Failure records are observations, never cached outcomes:
//     warm_start() preloads only successful classifications, and
//     retry_eligible() encodes which observations a service should retry
//     (a timeout depends on last run's deadline; malformed is a property
//     of the input and is never retried).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/shard.hpp"

namespace lclpath::store {

/// Should a service re-run a problem whose stored record is this kind of
/// failure? Everything transient or environment-dependent is retried —
/// kTimeout/kCancelled (that run's deadline or caller), kBudget (that
/// run's ceilings), kInternal (possibly a fixed bug) — while kMalformed
/// is a property of the problem text itself and is never retried.
bool retry_eligible(BatchErrorKind kind);

/// Builds the store record for one batch slot: the problem and its
/// classification or failure observation. The entry must hold an outcome
/// (classified or error). The options do not enter the record; the
/// parameter stays for source compatibility.
StoreRecord record_of(const PairwiseProblem& problem, const BatchEntry& entry,
                      const ClassifyOptions& options);

/// One shard file's validated records, each beside its cache key
/// (StoreRecord::cache_key()), keyed once when the shard is loaded.
using KeyedRecords = std::vector<std::pair<std::string, StoreRecord>>;

/// An immutable point-in-time view of the store, shared RCU-style: the
/// serve loop swaps a new snapshot in after validating a reload while
/// in-flight readers keep the old one alive through their shared_ptr.
/// A snapshot shares its shards' records with the server and with the
/// snapshots before and after it; a new snapshot copies no record and
/// computes no key, it only indexes the shards it is given.
class StoreSnapshot {
 public:
  StoreSnapshot() = default;
  /// Indexes `shards` in order; on a key held by more than one shard, the
  /// earlier shard's record is served.
  explicit StoreSnapshot(std::vector<std::shared_ptr<const KeyedRecords>> shards);

  /// Lookup by full cache identity (StoreRecord::cache_key()); nullptr
  /// when the store has no record — classified or observed — for it.
  const StoreRecord* find(const std::string& cache_key) const;
  std::size_t size() const { return index_.size(); }

 private:
  std::vector<std::shared_ptr<const KeyedRecords>> shards_;
  /// Views into shards_' keys and records.
  std::unordered_map<std::string_view, const StoreRecord*> index_;
};

/// What load() found on disk. Dirty shards are reported, not fatal.
struct LoadReport {
  std::size_t shards_seen = 0;
  std::size_t shards_ok = 0;
  std::size_t records = 0;
  std::size_t duplicates = 0;
  /// "file: reason" per dirty shard.
  std::vector<std::string> dirty;
};

struct StoreOptions {
  /// Shard files a commit distributes records over. Read-side is
  /// layout-agnostic (records are self-describing).
  std::size_t shard_count = 16;
};

/// The mutable, single-writer store handle: load a directory, stage
/// records, commit dirty shards atomically. Not thread-safe (one writer —
/// the serve loop or a CLI invocation); concurrent *readers* use the serve
/// loop's CatalogServer snapshots instead.
class ResultStore {
 public:
  explicit ResultStore(std::string directory, StoreOptions options = {});

  const std::string& directory() const { return directory_; }

  /// Loads every `*.lcls` shard in the directory (creating the directory
  /// if missing). Safe to call on an empty or half-corrupted store. A
  /// shard file of this layout written in an older format version is
  /// marked for rewrite, so the next commit() replaces it in the current
  /// format (its records are re-derived by whoever re-classifies them;
  /// cache keys changed with the format, so they may land elsewhere).
  LoadReport load();

  /// Stages a record under its cache key. A success overwrites anything;
  /// a failure observation overwrites a previous observation but never a
  /// stored classification (a success is machine-independent truth, an
  /// observation is circumstance).
  void put(StoreRecord record);

  /// Rewrites every shard touched since the last commit, each via the
  /// atomic write protocol. Returns the number of shard files written.
  /// Throws StoreIoError on failure; shards already written stay written
  /// (old-complete or new-complete per file), and the failed commit may
  /// be retried verbatim.
  std::size_t commit();

  /// Preloads every *successful* classification into `cache` as a
  /// Verdict built straight from its record — a warm start is a
  /// directory read, not a re-classify. Failure observations are NOT
  /// preloaded (the in-memory cache never memoizes failures; the store
  /// keeps them only as observations). Returns the number preloaded and
  /// remembers it for preloaded().
  std::size_t warm_start(BatchCache& cache);

  /// Records preloaded by the last warm_start().
  std::size_t preloaded() const { return preloaded_; }

  std::size_t size() const { return records_.size(); }
  const std::map<std::string, StoreRecord>& records() const { return records_; }
  const StoreRecord* find(const std::string& cache_key) const;

  /// The shard index (and file name) a key commits to under this layout.
  std::size_t shard_index(const std::string& cache_key) const;
  std::string shard_path(std::size_t index) const;

 private:
  std::string directory_;
  StoreOptions options_;
  /// Ordered so shard encodings are deterministic run-to-run.
  std::map<std::string, StoreRecord> records_;
  std::set<std::size_t> dirty_shards_;
  std::size_t preloaded_ = 0;
};

/// One shard's fsck verdict.
struct FsckShard {
  std::string file;
  bool ok = false;
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  std::size_t records = 0;
  std::string error;
};

struct FsckReport {
  bool clean = true;
  std::size_t records = 0;
  std::vector<FsckShard> shards;
};

/// Walks a catalog directory and validates every shard header/checksum/
/// record count — the same tripwire for operators and CI. Never throws
/// on corruption (that is the report's job); a missing directory yields
/// an empty, clean report.
FsckReport fsck(const std::string& directory);

/// Sorted `*.lcls` files of a directory. `*.tmp` crash leftovers and
/// unrelated files are ignored; a missing directory lists empty.
std::vector<std::string> list_shard_files(const std::string& directory);

}  // namespace lclpath::store
