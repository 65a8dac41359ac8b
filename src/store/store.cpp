#include "store/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "decide/classifier.hpp"
#include "lcl/serialize.hpp"

namespace lclpath::store {

namespace fs = std::filesystem;

std::vector<std::string> list_shard_files(const std::string& directory) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".lcls") == 0) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool retry_eligible(BatchErrorKind kind) { return kind != BatchErrorKind::kMalformed; }

StoreRecord record_of(const PairwiseProblem& problem, const BatchEntry& entry,
                      const ClassifyOptions&) {
  StoreRecord record;
  record.problem = problem;
  if (entry.ok()) {
    record.classified = entry.classified().complexity();
  } else if (entry.outcome != nullptr && entry.outcome->error) {
    record.observation = *entry.outcome->error;
  } else {
    record.observation = BatchError{BatchErrorKind::kInternal, "missing batch outcome"};
  }
  return record;
}

const StoreRecord* StoreSnapshot::find(const std::string& cache_key) const {
  const auto it = records_.find(cache_key);
  return it == records_.end() ? nullptr : &it->second;
}

ResultStore::ResultStore(std::string directory, StoreOptions options)
    : directory_(std::move(directory)), options_(options) {
  if (options_.shard_count == 0) options_.shard_count = 1;
}

LoadReport ResultStore::load() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  LoadReport report;
  for (const std::string& file : list_shard_files(directory_)) {
    ++report.shards_seen;
    ShardLoadResult shard = load_shard(file);
    if (!shard.ok) {
      report.dirty.push_back(file + ": " + shard.error);
      if (shard.version != 0 && shard.version < kShardFormatVersion) {
        const fs::path name = fs::path(file).filename();
        for (std::size_t index = 0; index < options_.shard_count; ++index) {
          if (fs::path(shard_path(index)).filename() == name) dirty_shards_.insert(index);
        }
      }
      continue;
    }
    ++report.shards_ok;
    for (StoreRecord& record : shard.records) {
      std::string key = record.cache_key();
      const auto [it, inserted] = records_.emplace(std::move(key), std::move(record));
      (void)it;
      if (inserted) {
        ++report.records;
      } else {
        ++report.duplicates;
      }
    }
  }
  return report;
}

void ResultStore::put(StoreRecord record) {
  std::string key = record.cache_key();
  const auto it = records_.find(key);
  if (it != records_.end() && it->second.ok() && !record.ok()) {
    // Never clobber a stored classification with an observation: the
    // class is machine-independent truth, the failure is circumstance.
    return;
  }
  dirty_shards_.insert(shard_index(key));
  records_.insert_or_assign(std::move(key), std::move(record));
}

std::size_t ResultStore::commit() {
  if (dirty_shards_.empty()) return 0;
  // Group records by target shard once; only dirty shards are rewritten.
  std::map<std::size_t, std::vector<StoreRecord>> by_shard;
  for (const auto& [key, record] : records_) {
    const std::size_t index = shard_index(key);
    if (dirty_shards_.count(index) != 0) by_shard[index].push_back(record);
  }
  std::size_t written = 0;
  // Erase each dirty flag only after its shard landed: a commit that
  // throws mid-way keeps the unwritten shards dirty, so retrying the
  // commit finishes exactly the remaining files.
  for (auto it = dirty_shards_.begin(); it != dirty_shards_.end();) {
    const std::size_t index = *it;
    write_shard_atomic(shard_path(index), encode_shard(by_shard[index]));
    ++written;
    it = dirty_shards_.erase(it);
  }
  return written;
}

std::shared_ptr<const StoreSnapshot> ResultStore::snapshot() const {
  std::unordered_map<std::string, StoreRecord> copy(records_.begin(), records_.end());
  return std::make_shared<const StoreSnapshot>(std::move(copy));
}

std::size_t ResultStore::warm_start(BatchCache& cache) {
  preloaded_ = 0;
  for (const auto& [key, record] : records_) {
    if (!record.ok()) continue;  // observations are never cache entries
    auto outcome = std::make_shared<BatchOutcome>();
    outcome->classified = ClassifiedProblem::restore(record.problem, *record.classified);
    cache.insert(canonical_hash(key), key, std::move(outcome));
    ++preloaded_;
  }
  return preloaded_;
}

const StoreRecord* ResultStore::find(const std::string& cache_key) const {
  const auto it = records_.find(cache_key);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t ResultStore::shard_index(const std::string& cache_key) const {
  return canonical_hash(cache_key) % options_.shard_count;
}

std::string ResultStore::shard_path(std::size_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu.lcls", index);
  return directory_ + "/" + name;
}

FsckReport fsck(const std::string& directory) {
  FsckReport report;
  for (const std::string& file : list_shard_files(directory)) {
    FsckShard shard;
    shard.file = file;
    ShardLoadResult loaded = load_shard(file);
    shard.ok = loaded.ok;
    shard.version = loaded.version;
    shard.checksum = loaded.checksum;
    shard.records = loaded.records.size();
    shard.error = loaded.error;
    if (loaded.ok) {
      report.records += loaded.records.size();
    } else {
      report.clean = false;
    }
    report.shards.push_back(std::move(shard));
  }
  return report;
}

}  // namespace lclpath::store
