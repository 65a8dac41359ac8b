// store_serve: the cycle of `lclpath_cli serve` against a store that
// holds a classified corpus. prepare() (untimed fixture) classifies a
// seeded corpus into a fresh store directory. setup() (timed, setup_s) is
// what a fresh serve process does on that store: load + warm_start + first
// poll. One client (the serve loop is one writer) runs the loop; each op is
// one serve iteration: `serve_lookups` repeat requests answered from the
// CatalogServer snapshot (parse, canonical key, find), then one chunk of
// `serve_chunk` novel problems that goes through classify_batch,
// ResultStore::put, one commit and the next poll — the classify / put /
// commit / poll cycle `lclpath_cli serve --chunk 4` runs per iteration.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>

#include <unistd.h>

#include "bench.hpp"
#include "decide/batch.hpp"
#include "generate.hpp"
#include "lcl/serialize.hpp"
#include "loop.hpp"
#include "stats.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"

namespace pipebench {

namespace {

using namespace lclpath;
namespace fs = std::filesystem;

constexpr std::uint64_t kNovelDeadlineMs = 5000;
/// Observed class byte of a lookup the snapshot did not answer.
constexpr std::uint8_t kMiss = 0xFF;
/// Corpus problems classified per classify_batch call in prepare().
constexpr std::size_t kCorpusChunk = 500;
/// Capacity reserved for per-lookup samples (see loop.cpp).
constexpr std::size_t kReservedLookups = 1u << 23;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class StoreWorkload final : public Workload {
 public:
  explicit StoreWorkload(const Config& config)
      : config_(config),
        suffix_(cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto)) {}

  ~StoreWorkload() override { teardown(); }

  void prepare(ThreadTrace* trace) override {
    Span setup_span(trace, SpanKind::kSetup);
    teardown();
    setup_failures_.clear();
    inputs_ = store_inputs(config_.seed, config_.sizes.corpus, config_.sizes.novel_pool);
    static int next_dir = 0;
    dir_ = (fs::path(config_.workdir) /
            ("store-" + std::to_string(::getpid()) + "-" + std::to_string(next_dir++)))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    build_store(trace);
  }

  /// A fresh serve process's start on the corpus store.
  void setup(ThreadTrace* trace) override {
    Span setup_span(trace, SpanKind::kSetup);
    const Clock::time_point t0 = Clock::now();
    server_.reset();
    writer_ = std::make_unique<store::ResultStore>(dir_);
    {
      Span span(trace, SpanKind::kLoad);
      const store::LoadReport report = writer_->load();
      count(trace, Counter::kRecordsLoaded, static_cast<double>(report.records));
      count(trace, Counter::kDirtyShards, static_cast<double>(report.dirty.size()));
    }
    cache_ = std::make_unique<BatchCache>();
    {
      Span span(trace, SpanKind::kWarmStart);
      count(trace, Counter::kPreloaded, static_cast<double>(writer_->warm_start(*cache_)));
    }
    server_ = std::make_unique<store::CatalogServer>(dir_);
    poll(trace);
    monoids_ = std::make_unique<MonoidCache>();
    restart_s_.push_back(seconds_between(t0, Clock::now()));
  }

  LoopResult run(const Plan* replay, std::vector<ThreadTrace>* traces) override {
    stream_ = request_rng();
    observed_.clear();
    observed_.reserve(kReservedLookups);
    lookup_ms_.clear();
    lookup_ms_.reserve(kReservedLookups);
    novel_cursor_ = 0;
    novel_done_.clear();
    commit_ms_.clear();
    write_ms_.clear();
    const std::uint64_t hits0 = cache_->hits();
    const std::uint64_t misses0 = cache_->misses();
    const std::uint64_t monoid_hits0 = monoids_->hits();
    const std::uint64_t monoid_misses0 = monoids_->misses();

    LoopSpec spec;
    spec.clients = 1;
    spec.seconds = config_.seconds;
    spec.replay = replay;
    spec.traces = traces;
    LoopResult result = closed_loop(
        spec, [this](std::size_t, std::size_t, ThreadTrace* trace) { return iteration(trace); });
    // Count requests, not iterations: every lookup and every novel problem.
    std::uint64_t misses = 0;
    for (const std::uint8_t seen : observed_) misses += seen == kMiss;
    result.attempted = observed_.size() + novel_cursor_;
    result.failed = misses + novel_failed();
    result.work = static_cast<double>(result.attempted - result.failed);
    if (traces != nullptr) {
      // The caches count on their own; their traffic during this loop goes
      // to the client's totals.
      ThreadTrace& first = traces->front();
      first.add(Counter::kBatchCacheHits, static_cast<double>(cache_->hits() - hits0));
      first.add(Counter::kBatchCacheMisses, static_cast<double>(cache_->misses() - misses0));
      first.add(Counter::kMonoidCacheHits,
                static_cast<double>(monoids_->hits() - monoid_hits0));
      first.add(Counter::kMonoidCacheMisses,
                static_cast<double>(monoids_->misses() - monoid_misses0));
    }
    return result;
  }

  void prepare_replay() override {
    prepare(nullptr);
    setup(nullptr);
  }

  void check(Checks& checks) override {
    for (const std::string& failure : setup_failures_) checks.require(false, failure);
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      checks.require(error_.empty(), "store_serve: " + error_);
    }
    // Regenerate the request stream and compare what every lookup returned
    // with the class the corpus build computed.
    Rng rng = request_rng();
    std::size_t wrong = 0;
    for (const std::uint8_t seen : observed_) {
      wrong += seen != expected_[rng.next_below(inputs_.corpus.size())];
    }
    checks.require(wrong == 0, "store_serve: " + std::to_string(wrong) +
                                   " lookup(s) differ from the set-up classification");
    checks.require(novel_failed() == 0, "store_serve: " + std::to_string(novel_failed()) +
                                            " novel problem(s) failed to classify");
    // Every novel classification is served by the final snapshot.
    const std::shared_ptr<const store::StoreSnapshot> snapshot = server_->snapshot();
    std::size_t unserved = 0;
    for (const auto& [index, complexity] : novel_done_) {
      const store::StoreRecord* record =
          snapshot->find(canonical_key(parse_problem(inputs_.novel[index])) + suffix_);
      unserved += record == nullptr || !record->ok() || *record->classified != complexity;
    }
    checks.require(unserved == 0, "store_serve: " + std::to_string(unserved) +
                                      " novel classification(s) missing from the snapshot");
    const store::FsckReport fsck = store::fsck(dir_);
    checks.require(fsck.clean, "store_serve: fsck reports a dirty store");
    checks.require(fsck.records == writer_->size(),
                   "store_serve: fsck counts " + std::to_string(fsck.records) +
                       " records, the writer holds " + std::to_string(writer_->size()));
  }

  const char* work_name() const override { return "requests"; }
  const char* op_name() const override { return "iteration"; }

  std::vector<Metric> details(const LoopResult&) const override {
    std::vector<double> lookups = lookup_ms_;
    std::sort(lookups.begin(), lookups.end());
    const Tail tail = tail_of_sorted(lookups);
    return {{"lookup_p50_ms", percentile_sorted(lookups, 50), "ms"},
            {"lookup_tail_ms", tail.value, "ms"},
            {"lookup_tail_percentile", tail.percentile, "%"},
            {"lookup_tail_beyond", static_cast<double>(tail.beyond), "count"},
            {"write_p50_ms", median(write_ms_), "ms"},
            {"commit_p50_ms", median(commit_ms_), "ms"},
            {"commits", static_cast<double>(commit_ms_.size()), "count"},
            {"restart_s", median(restart_s_), "s"},
            {"store_records", static_cast<double>(writer_ ? writer_->size() : 0), "count"}};
  }

  void teardown() override {
    server_.reset();
    writer_.reset();
    cache_.reset();
    monoids_.reset();
    if (!dir_.empty()) {
      std::error_code ignored;
      fs::remove_all(dir_, ignored);
      dir_.clear();
    }
  }

 private:
  Rng request_rng() const { return seeded_rng(config_.seed, 500); }
  std::size_t novel_failed() const { return novel_cursor_ - novel_done_.size(); }

  /// Classifies the corpus into the store directory, a chunk at a time,
  /// so only one chunk's certificates are alive at once and the fixture's
  /// memory does not depend on the seed's mix.
  void build_store(ThreadTrace* trace) {
    MonoidCache monoids;
    BatchOptions options;
    options.num_threads = config_.clients;
    options.classify.monoid_cache = &monoids;
    store::ResultStore writer(dir_);
    const std::vector<std::string>& corpus = inputs_.corpus;
    expected_.assign(corpus.size(), kMiss);
    for (std::size_t begin = 0; begin < corpus.size(); begin += kCorpusChunk) {
      const std::size_t end = std::min(corpus.size(), begin + kCorpusChunk);
      std::vector<PairwiseProblem> problems;
      for (std::size_t i = begin; i < end; ++i) {
        Span span(trace, SpanKind::kParse);
        problems.push_back(parse_problem(corpus[i]));
      }
      std::vector<BatchEntry> entries;
      {
        Span span(trace, SpanKind::kBatch);
        entries = classify_batch(problems, options);
      }
      for (std::size_t j = 0; j < entries.size(); ++j) {
        if (!entries[j].ok()) {
          setup_failures_.push_back("store_serve: corpus problem " + problems[j].name() +
                                    " failed: " + entries[j].error());
          continue;
        }
        expected_[begin + j] = static_cast<std::uint8_t>(entries[j].classified().complexity());
        if (entries[j].deduplicated) {
          count(trace, Counter::kBatchDedup, 1);
          continue;
        }
        Span span(trace, SpanKind::kPut);
        writer.put(store::record_of(problems[j], entries[j], options.classify));
      }
    }
    count(trace, Counter::kMonoidCacheHits, static_cast<double>(monoids.hits()));
    count(trace, Counter::kMonoidCacheMisses, static_cast<double>(monoids.misses()));
    Span span(trace, SpanKind::kCommit);
    count(trace, Counter::kShardsWritten, static_cast<double>(writer.commit()));
  }

  void poll(ThreadTrace* trace) {
    Span span(trace, SpanKind::kPoll);
    const store::ReloadReport report = server_->poll();
    count(trace, Counter::kReloaded, static_cast<double>(report.reloaded));
    count(trace, Counter::kRejected, static_cast<double>(report.rejected));
  }

  /// One serve iteration; false when a request in it failed.
  bool iteration(ThreadTrace* trace) {
    Span request(trace, SpanKind::kRequest);
    bool ok = true;
    for (std::size_t k = 0; k < config_.sizes.serve_lookups; ++k) ok &= lookup(trace);
    return write_chunk(trace) && ok;
  }

  bool lookup(ThreadTrace* trace) {
    const std::size_t index = stream_.next_below(inputs_.corpus.size());
    const Clock::time_point t0 = Clock::now();
    std::uint8_t seen = kMiss;
    try {
      std::optional<PairwiseProblem> problem;
      {
        Span span(trace, SpanKind::kParse);
        problem.emplace(parse_problem(inputs_.corpus[index]));
      }
      std::string key;
      {
        Span span(trace, SpanKind::kKey);
        key = canonical_key(*problem) + suffix_;
      }
      Span span(trace, SpanKind::kFind);
      const std::shared_ptr<const store::StoreSnapshot> snapshot = server_->snapshot();
      const store::StoreRecord* record = snapshot->find(key);
      if (record != nullptr && record->ok()) {
        seen = static_cast<std::uint8_t>(*record->classified);
        count(trace, Counter::kFindHits, 1);
      }
    } catch (const std::exception& e) {
      note_error(e);
    }
    lookup_ms_.push_back(ms_between(t0, Clock::now()));
    observed_.push_back(seen);
    return seen != kMiss;
  }

  /// The next serve_chunk novel problems: classify_batch, put, one commit,
  /// then the poll that makes them visible to readers.
  bool write_chunk(ThreadTrace* trace) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t done_before = novel_done_.size();
    std::vector<std::size_t> indices;
    std::vector<PairwiseProblem> problems;
    try {
      for (std::size_t k = 0; k < config_.sizes.serve_chunk; ++k) {
        indices.push_back(novel_cursor_++ % inputs_.novel.size());
        Span span(trace, SpanKind::kParse);
        problems.push_back(parse_problem(inputs_.novel[indices.back()]));
      }
      BatchOptions options;
      options.num_threads = 1;
      options.cache = cache_.get();
      options.classify.monoid_cache = monoids_.get();
      options.problem_deadline_ms = kNovelDeadlineMs;
      std::vector<BatchEntry> batch;
      {
        Span span(trace, SpanKind::kBatch);
        batch = classify_batch(problems, options);
      }
      for (std::size_t j = 0; j < batch.size(); ++j) {
        count(trace, Counter::kBatchDedup, batch[j].deduplicated ? 1 : 0);
        if (!batch[j].ok()) continue;
        novel_done_.emplace_back(indices[j], batch[j].classified().complexity());
        if (batch[j].deduplicated || batch[j].from_cache) continue;
        Span span(trace, SpanKind::kPut);
        writer_->put(store::record_of(problems[j], batch[j], options.classify));
      }
      {
        Span span(trace, SpanKind::kCommit);
        const Clock::time_point c0 = Clock::now();
        count(trace, Counter::kShardsWritten, static_cast<double>(writer_->commit()));
        commit_ms_.push_back(ms_between(c0, Clock::now()));
      }
      poll(trace);
    } catch (const std::exception& e) {
      note_error(e);
      return false;
    }
    write_ms_.push_back(ms_between(t0, Clock::now()));
    return novel_done_.size() - done_before == config_.sizes.serve_chunk;
  }

  void note_error(const std::exception& e) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.empty()) error_ = e.what();
  }

  Config config_;
  const std::string suffix_;
  StoreInputs inputs_;
  std::vector<std::uint8_t> expected_;  ///< class byte per corpus problem
  std::string dir_;
  std::unique_ptr<store::ResultStore> writer_;
  std::unique_ptr<BatchCache> cache_;
  std::unique_ptr<MonoidCache> monoids_;
  std::unique_ptr<store::CatalogServer> server_;
  std::vector<double> restart_s_;
  std::vector<std::string> setup_failures_;

  Rng stream_{0};                     ///< the lookup request stream
  std::vector<std::uint8_t> observed_;  ///< class byte per lookup
  std::vector<double> lookup_ms_;
  std::size_t novel_cursor_ = 0;  ///< novel problems sent so far
  std::vector<std::pair<std::size_t, ComplexityClass>> novel_done_;
  std::vector<double> commit_ms_;
  std::vector<double> write_ms_;  ///< classify_batch through poll, per chunk
  std::mutex error_mutex_;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_store_serve(const Config& config) {
  return std::make_unique<StoreWorkload>(config);
}

}  // namespace pipebench
