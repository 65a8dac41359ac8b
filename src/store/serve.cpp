#include "store/serve.hpp"

#include <chrono>
#include <filesystem>
#include <set>
#include <utility>

namespace lclpath::store {

namespace fs = std::filesystem;

CatalogServer::CatalogServer(std::string directory)
    : directory_(std::move(directory)),
      snapshot_(std::make_shared<const StoreSnapshot>()) {}

ReloadReport CatalogServer::poll() {
  ReloadReport report;
  std::set<std::string> seen;
  for (const std::string& file : list_shard_files(directory_)) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(file, ec);
    const std::uint64_t size = ec ? 0 : fs::file_size(file, ec);
    if (ec) continue;  // raced with a delete; the next poll settles it
    const std::int64_t mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      mtime.time_since_epoch())
                                      .count();
    seen.insert(file);
    auto it = shards_.find(file);
    if (it != shards_.end() && it->second.mtime_ns == mtime_ns &&
        it->second.size == size) {
      ++report.unchanged;
      continue;
    }

    // Validate fully off to the side: nothing below touches the served
    // snapshot until the shard proved itself whole.
    ShardLoadResult loaded = load_shard(file);
    if (!loaded.ok) {
      ++report.rejected;
      rejections_.fetch_add(1, std::memory_order_relaxed);
      report.notes.push_back(file + ": rejected: " + loaded.error);
      // Remember the stat so an untouched bad file is not re-counted
      // every poll, but keep the last validated records — the server
      // keeps answering from the last good state.
      if (it != shards_.end()) {
        it->second.mtime_ns = mtime_ns;
        it->second.size = size;
      } else {
        shards_.emplace(file, ShardState{mtime_ns, size, nullptr});
      }
      continue;
    }
    auto keyed = std::make_shared<KeyedRecords>();
    keyed->reserve(loaded.records.size());
    for (StoreRecord& record : loaded.records) {
      std::string key = record.cache_key();
      keyed->emplace_back(std::move(key), std::move(record));
    }
    report.notes.push_back(file + ": reloaded (" + std::to_string(keyed->size()) +
                           " record(s))");
    shards_.insert_or_assign(file, ShardState{mtime_ns, size, std::move(keyed)});
    ++report.reloaded;
    reloads_.fetch_add(1, std::memory_order_relaxed);
  }

  for (auto it = shards_.begin(); it != shards_.end();) {
    if (seen.count(it->first) == 0) {
      it = shards_.erase(it);
      ++report.removed;
    } else {
      ++it;
    }
  }

  if (report.changed()) publish();
  return report;
}

void CatalogServer::publish() {
  // shards_ iterates in path order, so the first file wins on duplicates.
  std::vector<std::shared_ptr<const KeyedRecords>> shards;
  shards.reserve(shards_.size());
  for (const auto& [file, state] : shards_) {
    if (state.records) shards.push_back(state.records);
  }
  auto next = std::make_shared<const StoreSnapshot>(std::move(shards));
  std::shared_ptr<const StoreSnapshot> previous;  // released outside the lock
  std::lock_guard<std::mutex> lock(mutex_);
  previous = std::exchange(snapshot_, std::move(next));
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const StoreSnapshot> CatalogServer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

}  // namespace lclpath::store
