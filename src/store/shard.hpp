// Shard files: the on-disk unit of the persistent result store.
//
// A shard is a plain-text file holding serialized classification records,
// fronted by a self-describing header:
//
//   lclshard 2 <record-count> <payload-checksum-16hex>
//   record class log-star
//   lcl 3-coloring
//   topology directed-cycle
//   ...
//   end
//   record error timeout
//   message deadline expired after 100ms
//   lcl hostile-a4-b4-s7
//   ...
//   end
//
// Each record carries the full problem serialization (lcl/serialize.hpp)
// — from which the in-memory BatchCache identity (canonical_key +
// cache_identity_suffix) is rebuilt — and either a complexity class or a
// BatchError observation. Version 1 additionally named the linear-gap
// engine and certificate mode on each record line ("record factorized
// auto class ..."); such shards fail the version check and load dirty,
// and ResultStore rewrites them in the current format on its next commit.
//
// PERSISTENCE CONTRACT
//
//   * Commit side: write_shard_atomic() goes write-temp -> fsync ->
//     atomic rename -> fsync(dir). A crash or I/O failure at any point
//     leaves the destination either the complete old file or the complete
//     new file, never a torn mix; stray "*.tmp" leftovers are ignored by
//     every reader. I/O failures throw StoreIoError (and only that).
//   * Load side: decode validates the magic, the format version, the
//     payload checksum and the record count before trusting a single
//     byte. A truncated tail, a bit flip, an unknown version or hostile
//     bytes make the shard *dirty* — a skippable, reportable state that
//     means "re-classify incrementally" — never a crash and never a
//     partially-applied shard.
//   * Failure records are observations, not cached outcomes: loaders
//     surface them so a service can decide retry policy (see
//     store::retry_eligible), but they are never served as if they were
//     classifications.
//
// Under LCLPATH_FAULT_INJECTION every write/fsync/rename/load reports to
// core/fault_injection's I/O harness, which makes the whole contract
// testable deterministically (tests/store_test.cpp sweeps every point).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "decide/batch.hpp"
#include "lcl/problem.hpp"

namespace lclpath::store {

/// The shard format this build writes; decode() rejects any other
/// version as dirty rather than guessing.
inline constexpr std::uint32_t kShardFormatVersion = 2;

/// Thrown by the commit path on any I/O failure (open/write/fsync/
/// rename). The store file set is still old-complete or new-complete —
/// callers may retry the commit verbatim.
class StoreIoError : public std::runtime_error {
 public:
  explicit StoreIoError(const std::string& message) : std::runtime_error(message) {}
};

/// One persisted result: a problem and either a complexity class
/// (`classified`) or a structured failure observation (`observation`).
/// Exactly one of the two is set.
struct StoreRecord {
  PairwiseProblem problem;
  std::optional<ComplexityClass> classified;
  std::optional<BatchError> observation;

  bool ok() const { return classified.has_value(); }
  /// The full cache identity — canonical_key(problem) plus
  /// cache_identity_suffix() — i.e. the same string classify_batch keys
  /// its BatchCache with.
  std::string cache_key() const;
};

/// The outcome of decoding one shard. `ok == false` means the shard is
/// dirty: `error` says why, `records` is empty, and the caller re-derives
/// the shard's content instead of trusting any of it. `version` is set
/// whenever the header parsed, so a shard in another format version is
/// distinguishable from a corrupted one.
struct ShardLoadResult {
  bool ok = false;
  std::string error;
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  std::size_t declared_records = 0;
  std::vector<StoreRecord> records;
};

/// Serializes records into shard bytes (header + payload), appended to one
/// string.
std::string encode_shard(const std::vector<StoreRecord>& records);
/// The same bytes for records held elsewhere: ResultStore::commit encodes
/// its records where they are instead of copying them.
std::string encode_shard(const std::vector<const StoreRecord*>& records);

/// Validates + parses shard bytes; never throws on hostile input. Records
/// are framed over the bytes in place and each problem block is parsed as
/// a view. Header fields are read strictly: the version and record count
/// as plain decimal tokens, the checksum as exactly 16 hex digits.
ShardLoadResult decode_shard(std::string_view bytes);

/// Reads and decodes one shard file. A missing/unreadable file is dirty,
/// not an exception (the loader's callers treat every bad shard the same
/// way). Reports fault::IoPoint::kLoad.
ShardLoadResult load_shard(const std::string& path);

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory, fsync, atomic rename over `path`, fsync of the directory.
/// Throws StoreIoError on failure, after removing the temp file; the
/// destination is untouched unless the rename completed. Reports
/// fault::IoPoint::{kWrite,kFsync,kRename}.
void write_shard_atomic(const std::string& path, const std::string& bytes);

}  // namespace lclpath::store
