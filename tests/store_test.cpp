// The persistent catalog store's contract, end to end.
//
// Three layers are under test here:
//   * shard.{hpp,cpp} — encode/decode round-trips (classifications and
//     every failure-observation kind), and the validate-before-trust
//     decoder: truncated tails, bit flips, unknown versions, hostile
//     bytes and record-count lies all come back "dirty", never a crash;
//   * store.{hpp,cpp} — directory load/put/commit semantics, the retry
//     taxonomy, and warm_start() preloading a BatchCache so a 10^4-record
//     batch classifies with zero decider runs (verified via the cache's
//     own hit/miss counters);
//   * serve.{hpp,cpp} — the validated hot-reload loop: a corrupted shard
//     rewrite is rejected while the server keeps answering from the last
//     good snapshot, and concurrent snapshot() readers are safe against
//     the poller's RCU swaps (the TSan job runs these suites).
//
// The crash-consistency sweep (StoreFaultSweep) needs the
// LCLPATH_FAULT_INJECTION build: it arms every write/fsync/rename
// occurrence of a multi-shard commit in turn and asserts each shard file
// on disk is the complete old file or the complete new file — and that
// retrying the failed commit verbatim finishes the job. Without the
// option those sweeps GTEST_SKIP; everything else runs in any build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault_injection.hpp"
#include "decide/batch.hpp"
#include "decide/classifier.hpp"
#include "lcl/catalog.hpp"
#include "lcl/serialize.hpp"
#include "store/serve.hpp"
#include "store/shard.hpp"
#include "store/store.hpp"

namespace lclpath::store {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory for one test, removed on destruction.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("lclpath_store_test_" + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StoreRecord classified_record(PairwiseProblem problem, ComplexityClass c) {
  StoreRecord record;
  record.problem = std::move(problem);
  record.classified = c;
  return record;
}

StoreRecord observed_record(PairwiseProblem problem, BatchErrorKind kind,
                            std::string message) {
  StoreRecord record;
  record.problem = std::move(problem);
  record.observation = BatchError{kind, std::move(message)};
  return record;
}

/// Distinct tiny problems: outputs o0..o3, single input, edge relation
/// taken from the low 16 bits of `index` — 2^16 distinct canonical keys,
/// far more than any test here needs. Never meant to be classified.
PairwiseProblem synthetic_problem(std::size_t index) {
  Alphabet in, out;
  in.add("a");
  for (std::size_t o = 0; o < 4; ++o) out.add("o" + std::to_string(o));
  PairwiseProblem p("synthetic-" + std::to_string(index), in, out,
                    Topology::kDirectedCycle);
  for (Label o = 0; o < 4; ++o) p.allow_node(0, o);
  for (Label a = 0; a < 4; ++a) {
    for (Label b = 0; b < 4; ++b) {
      if ((index >> (a * 4 + b)) & 1u) p.allow_edge(a, b);
    }
  }
  return p;
}

// ------------------------------------------------------------- shards

TEST(Store, ShardRoundTripClassifications) {
  std::vector<StoreRecord> records;
  records.push_back(classified_record(catalog::coloring(3), ComplexityClass::kLogStar));
  records.push_back(
      classified_record(catalog::constant_output(), ComplexityClass::kConstant));
  records.push_back(
      classified_record(catalog::two_coloring(), ComplexityClass::kUnsolvable));

  const std::string bytes = encode_shard(records);
  const ShardLoadResult loaded = decode_shard(bytes);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.version, kShardFormatVersion);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].cache_key(), records[i].cache_key()) << i;
    ASSERT_TRUE(loaded.records[i].ok()) << i;
    EXPECT_EQ(*loaded.records[i].classified, *records[i].classified) << i;
  }
}

TEST(Store, ShardRoundTripEveryErrorKind) {
  const BatchErrorKind kinds[] = {BatchErrorKind::kTimeout, BatchErrorKind::kBudget,
                                  BatchErrorKind::kMalformed,
                                  BatchErrorKind::kCancelled,
                                  BatchErrorKind::kInternal};
  std::vector<StoreRecord> records;
  std::size_t i = 0;
  for (const BatchErrorKind kind : kinds) {
    records.push_back(observed_record(synthetic_problem(i++), kind,
                                      "failed: " + to_string(kind)));
  }
  const ShardLoadResult loaded = decode_shard(encode_shard(records));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    ASSERT_FALSE(loaded.records[r].ok()) << r;
    ASSERT_TRUE(loaded.records[r].observation.has_value()) << r;
    EXPECT_EQ(loaded.records[r].observation->kind, records[r].observation->kind) << r;
    EXPECT_EQ(loaded.records[r].observation->message,
              records[r].observation->message)
        << r;
  }
}

TEST(Store, ShardFlattensMultiLineMessages) {
  // A failure message with embedded newlines must not be able to smuggle
  // extra "record"/"end" lines into the text format.
  std::vector<StoreRecord> records;
  records.push_back(observed_record(synthetic_problem(1), BatchErrorKind::kInternal,
                                    "line one\nend\nrecord injection"));
  const ShardLoadResult loaded = decode_shard(encode_shard(records));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.records.size(), 1u);
  const std::string& message = loaded.records[0].observation->message;
  EXPECT_EQ(message.find('\n'), std::string::npos);
  EXPECT_NE(message.find("line one"), std::string::npos);
}

TEST(Store, CacheKeyMatchesBatchIdentity) {
  const StoreRecord record =
      classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  EXPECT_EQ(record.cache_key(),
            canonical_key(record.problem) +
                cache_identity_suffix(LinearGapEngine::kFactorized,
                                      CertificateMode::kAuto));
  // A batch keyed through the same identity is served the stored record.
  ResultStore store("unused-dir", {1});
  store.put(record);
  BatchCache cache;
  ASSERT_EQ(store.warm_start(cache), 1u);
  BatchOptions options;
  options.cache = &cache;
  const auto entries = classify_batch(std::vector<PairwiseProblem>{record.problem}, options);
  ASSERT_TRUE(entries[0].ok());
  EXPECT_TRUE(entries[0].from_cache);
}

TEST(Store, DecodeRejectsTruncatedTail) {
  const std::string bytes = encode_shard(
      {classified_record(catalog::coloring(3), ComplexityClass::kLogStar)});
  // Every strict prefix must be dirty, never a crash or a partial parse.
  for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{1},
                           std::size_t{0}}) {
    const ShardLoadResult loaded = decode_shard(bytes.substr(0, keep));
    EXPECT_FALSE(loaded.ok) << "prefix of " << keep << " bytes decoded";
    EXPECT_TRUE(loaded.records.empty());
  }
}

TEST(Store, DecodeRejectsBitFlips) {
  const std::string bytes = encode_shard(
      {classified_record(catalog::coloring(3), ComplexityClass::kLogStar)});
  // Flip the low bit of a byte at a spread of positions across header and
  // payload. (Not 0x20: case-flipping a hex digit of the checksum field is
  // the one byte change that is semantically neutral.)
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    const ShardLoadResult loaded = decode_shard(flipped);
    EXPECT_FALSE(loaded.ok) << "bit flip at byte " << at << " decoded";
  }
}

TEST(Store, DecodeRejectsUnknownVersion) {
  std::string bytes = encode_shard(
      {classified_record(catalog::coloring(3), ComplexityClass::kLogStar)});
  const std::string current = "lclshard " + std::to_string(kShardFormatVersion);
  ASSERT_EQ(bytes.rfind(current + " ", 0), 0u);
  bytes.replace(0, current.size(), "lclshard 99");
  const ShardLoadResult loaded = decode_shard(bytes);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("version"), std::string::npos) << loaded.error;
}

TEST(Store, DecodeRejectsRecordCountLie) {
  // Same payload, same checksum, header claims one record too many: the
  // count check has to catch what the checksum cannot.
  const std::string bytes = encode_shard(
      {classified_record(catalog::coloring(3), ComplexityClass::kLogStar)});
  const std::size_t newline = bytes.find('\n');
  ASSERT_NE(newline, std::string::npos);
  std::istringstream header(bytes.substr(0, newline));
  std::string magic, checksum;
  std::uint32_t version = 0;
  std::size_t count = 0;
  header >> magic >> version >> count >> checksum;
  ASSERT_EQ(count, 1u);
  const std::string lied = magic + " " + std::to_string(version) + " " +
                           std::to_string(count + 1) + " " + checksum +
                           bytes.substr(newline);
  const ShardLoadResult loaded = decode_shard(lied);
  EXPECT_FALSE(loaded.ok);
}

TEST(Store, DecodeRejectsHostileBytes) {
  for (const char* hostile :
       {"", "garbage", "lclshard", "lclshard one two three",
        "lclshard 1 0 nothex!!\n", "\xff\xfe binary soup"}) {
    const ShardLoadResult loaded = decode_shard(hostile);
    EXPECT_FALSE(loaded.ok) << '"' << hostile << '"';
  }
}

// ----------------------------------------------------------- directory

TEST(Store, CommitReloadRoundTrip) {
  ScopedDir dir("roundtrip");
  ResultStore store(dir.path(), {4});
  store.put(classified_record(catalog::coloring(3), ComplexityClass::kLogStar));
  store.put(classified_record(catalog::constant_output(), ComplexityClass::kConstant));
  store.put(observed_record(synthetic_problem(7), BatchErrorKind::kTimeout,
                            "deadline expired"));
  EXPECT_GE(store.commit(), 1u);
  EXPECT_EQ(store.commit(), 0u) << "clean store rewrote shards";

  ResultStore reloaded(dir.path(), {4});
  const LoadReport report = reloaded.load();
  EXPECT_TRUE(report.dirty.empty());
  EXPECT_EQ(report.records, 3u);
  EXPECT_EQ(reloaded.size(), 3u);
  for (const auto& [key, record] : store.records()) {
    const StoreRecord* found = reloaded.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(found->ok(), record.ok());
  }
  EXPECT_TRUE(fsck(dir.path()).clean);
}

TEST(Store, LoadSkipsDirtyShardsAndKeepsGoodOnes) {
  ScopedDir dir("dirty_skip");
  ResultStore store(dir.path(), {1});
  store.put(classified_record(catalog::coloring(3), ComplexityClass::kLogStar));
  store.commit();
  // A second shard file written by hand (different layout — records are
  // self-describing, so load() unions whatever validates)...
  write_file(dir.path() + "/extra-0000.lcls",
             encode_shard({classified_record(catalog::constant_output(),
                                             ComplexityClass::kConstant)}));
  // ...and a corrupted third.
  std::string bad = encode_shard(
      {classified_record(catalog::two_coloring(), ComplexityClass::kUnsolvable)});
  bad.resize(bad.size() - 3);
  write_file(dir.path() + "/torn-0000.lcls", bad);
  // Stray crash leftovers must be invisible to readers.
  write_file(dir.path() + "/shard-0000.lcls.tmp", "half-written garbage");

  ResultStore reloaded(dir.path(), {1});
  const LoadReport report = reloaded.load();
  EXPECT_EQ(report.shards_seen, 3u);
  EXPECT_EQ(report.shards_ok, 2u);
  ASSERT_EQ(report.dirty.size(), 1u);
  EXPECT_NE(report.dirty[0].find("torn-0000.lcls"), std::string::npos);
  EXPECT_EQ(reloaded.size(), 2u);

  const FsckReport verdict = fsck(dir.path());
  EXPECT_FALSE(verdict.clean);
  EXPECT_EQ(verdict.shards.size(), 3u);
}

TEST(Store, ObservationNeverClobbersClassification) {
  ScopedDir dir("no_clobber");
  ResultStore store(dir.path(), {2});
  StoreRecord good = classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  const std::string key = good.cache_key();
  store.put(good);
  store.put(observed_record(catalog::coloring(3), BatchErrorKind::kTimeout,
                            "slow machine"));
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_TRUE(store.find(key)->ok()) << "observation clobbered a classification";

  // The other direction must upgrade: observation -> classification.
  store.put(observed_record(synthetic_problem(3), BatchErrorKind::kBudget, "cap"));
  store.put(classified_record(synthetic_problem(3), ComplexityClass::kLinear));
  const StoreRecord* upgraded = store.find(
      classified_record(synthetic_problem(3), ComplexityClass::kLinear).cache_key());
  ASSERT_NE(upgraded, nullptr);
  EXPECT_TRUE(upgraded->ok());
}

TEST(Store, RetryTaxonomy) {
  EXPECT_TRUE(retry_eligible(BatchErrorKind::kTimeout));
  EXPECT_TRUE(retry_eligible(BatchErrorKind::kBudget));
  EXPECT_TRUE(retry_eligible(BatchErrorKind::kCancelled));
  EXPECT_TRUE(retry_eligible(BatchErrorKind::kInternal));
  EXPECT_FALSE(retry_eligible(BatchErrorKind::kMalformed));
}

TEST(Store, RecordOfCapturesOutcomeAndConfiguration) {
  const PairwiseProblem problem = catalog::coloring(3);
  BatchOptions options;
  options.num_threads = 1;
  const std::vector<BatchEntry> entries =
      classify_batch(std::span<const PairwiseProblem>(&problem, 1), options);
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(entries[0].ok());
  const StoreRecord record = record_of(problem, entries[0], options.classify);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(*record.classified, ComplexityClass::kLogStar);
  // The one decider configuration is the record's identity suffix.
  EXPECT_EQ(record.cache_key(),
            canonical_key(problem) + cache_identity_suffix(LinearGapEngine::kFactorized,
                                                           CertificateMode::kAuto));

  // A failed entry persists as an observation.
  BatchEntry failed;
  auto outcome = std::make_shared<BatchOutcome>();
  outcome->error = BatchError{BatchErrorKind::kTimeout, "deadline"};
  failed.outcome = outcome;
  const StoreRecord observed = record_of(problem, failed, options.classify);
  EXPECT_FALSE(observed.ok());
  EXPECT_EQ(observed.observation->kind, BatchErrorKind::kTimeout);
}

// A shard in format version 1, which named the linear-gap engine and the
// certificate mode on every record line: (class word, problem) per record.
void write_version_one_shard(
    const std::string& path,
    const std::vector<std::pair<std::string, PairwiseProblem>>& records) {
  std::ostringstream payload;
  for (const auto& [class_word, problem] : records) {
    payload << "record factorized auto class " << class_word << "\n";
    serialize(problem, payload);
  }
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(canonical_hash(payload.str())));
  write_file(path, "lclshard 1 " + std::to_string(records.size()) + " " + checksum +
                       "\n" + payload.str());
}

// A store written before the shard format bump. A version-1 shard takes
// the corruption path (dirty, flagged by fsck, re-derived), version-2
// shards beside it keep warm-starting, and the next commit rewrites the
// dirty shard in the current format.
TEST(Store, VersionOneShardLoadsDirtyAndIsRewrittenAsVersionTwo) {
  ScopedDir dir("v1_upgrade");
  const std::vector<PairwiseProblem> problems = {
      catalog::coloring(3), catalog::constant_output(),  // in the v1 shard
      catalog::maximal_independent_set(), catalog::always_accept()};  // in the v2 shard

  write_version_one_shard(dir.path() + "/shard-0000.lcls",
                          {{"log-star", problems[0]}, {"constant", problems[1]}});
  write_file(dir.path() + "/shard-0001.lcls",
             encode_shard({classified_record(problems[2], ComplexityClass::kLogStar),
                           classified_record(problems[3], ComplexityClass::kConstant)}));

  ResultStore store(dir.path(), {1});
  const LoadReport report = store.load();
  EXPECT_EQ(report.shards_seen, 2u);
  EXPECT_EQ(report.shards_ok, 1u);
  ASSERT_EQ(report.dirty.size(), 1u);
  EXPECT_NE(report.dirty[0].find("shard-0000.lcls"), std::string::npos);
  EXPECT_NE(report.dirty[0].find("version 1"), std::string::npos) << report.dirty[0];
  const FsckReport before = fsck(dir.path());
  EXPECT_FALSE(before.clean);
  ASSERT_EQ(before.shards.size(), 2u);
  EXPECT_FALSE(before.shards[0].ok);
  EXPECT_EQ(before.shards[0].version, 1u);
  EXPECT_TRUE(before.shards[1].ok);

  // The v2 records warm-start; the v1 problems miss and classify fresh.
  BatchCache cache;
  ASSERT_EQ(store.warm_start(cache), 2u);
  BatchOptions options;
  options.cache = &cache;
  const std::vector<BatchEntry> entries = classify_batch(problems, options);
  ASSERT_EQ(entries.size(), problems.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(entries[i].ok()) << i << ": " << entries[i].error();
    EXPECT_EQ(entries[i].from_cache, i >= 2) << i;
  }
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(entries[0].classified().complexity(), ComplexityClass::kLogStar);
  EXPECT_EQ(entries[1].classified().complexity(), ComplexityClass::kConstant);

  // The next commit rewrites the dirty shard as the current version.
  for (std::size_t i = 0; i < problems.size(); ++i) {
    store.put(record_of(problems[i], entries[i], options.classify));
  }
  EXPECT_EQ(store.commit(), 1u);
  const ShardLoadResult rewritten = load_shard(dir.path() + "/shard-0000.lcls");
  ASSERT_TRUE(rewritten.ok) << rewritten.error;
  EXPECT_EQ(rewritten.version, kShardFormatVersion);
  EXPECT_EQ(rewritten.records.size(), problems.size());
  EXPECT_TRUE(fsck(dir.path()).clean);

  ResultStore reloaded(dir.path(), {1});
  EXPECT_TRUE(reloaded.load().dirty.empty());
  EXPECT_EQ(reloaded.size(), problems.size());
  for (const PairwiseProblem& problem : problems) {
    const std::string key =
        canonical_key(problem) +
        cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
    EXPECT_NE(reloaded.find(key), nullptr) << problem.name();
  }
}

// Keys changed with the format, so a version-1 shard of the layout may
// receive no re-derived record at all; it is still rewritten by the next
// commit instead of staying dirty forever. A shard from a *newer* format
// is left alone.
TEST(Store, OlderVersionShardIsRewrittenEvenWithoutRecords) {
  ScopedDir dir("v1_stale");
  write_version_one_shard(dir.path() + "/shard-0003.lcls",
                          {{"log-star", catalog::coloring(3)}});
  std::string newer = encode_shard({classified_record(catalog::constant_output(),
                                                      ComplexityClass::kConstant)});
  const std::string current = "lclshard " + std::to_string(kShardFormatVersion);
  newer.replace(0, current.size(), "lclshard " + std::to_string(kShardFormatVersion + 1));
  write_file(dir.path() + "/shard-0001.lcls", newer);

  ResultStore store(dir.path(), {4});
  EXPECT_EQ(store.load().dirty.size(), 2u);
  EXPECT_EQ(store.commit(), 1u);
  const ShardLoadResult rewritten = load_shard(dir.path() + "/shard-0003.lcls");
  ASSERT_TRUE(rewritten.ok) << rewritten.error;
  EXPECT_EQ(rewritten.version, kShardFormatVersion);
  EXPECT_TRUE(rewritten.records.empty());
  EXPECT_EQ(read_file(dir.path() + "/shard-0001.lcls"), newer);
}

// ----------------------------------------------------------- warm start

TEST(Store, WarmStartSkipsFailureObservations) {
  ScopedDir dir("warm_failures");
  ResultStore store(dir.path(), {2});
  store.put(classified_record(catalog::coloring(3), ComplexityClass::kLogStar));
  store.put(observed_record(synthetic_problem(11), BatchErrorKind::kTimeout, "t"));
  store.put(observed_record(synthetic_problem(12), BatchErrorKind::kMalformed, "m"));

  BatchCache cache;
  EXPECT_EQ(store.warm_start(cache), 1u);
  EXPECT_EQ(store.preloaded(), 1u);
  EXPECT_EQ(cache.size(), 1u) << "a failure observation was preloaded";
}

TEST(Store, WarmStartedEntriesAreRestoredResults) {
  ResultStore store("unused-dir", {2});
  store.put(classified_record(catalog::constant_output(), ComplexityClass::kConstant));
  BatchCache cache;
  ASSERT_EQ(store.warm_start(cache), 1u);

  const std::string key =
      canonical_key(catalog::constant_output()) +
      cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
  const auto outcome = cache.find(canonical_hash(key), key);
  ASSERT_NE(outcome, nullptr);
  ASSERT_TRUE(outcome->ok());
  const ClassifiedProblem& restored = *outcome->classified;
  EXPECT_TRUE(restored.restored());
  EXPECT_EQ(restored.complexity(), ComplexityClass::kConstant);
  EXPECT_EQ(restored.monoid_size(), 0u);
  EXPECT_NE(restored.summary().find("restored"), std::string::npos);
  // Certificates were deliberately not persisted: sub-linear synthesis
  // demands a re-classify instead of guessing.
  EXPECT_THROW((void)restored.synthesize(), std::logic_error);
}

TEST(Store, WarmStartTenThousandRecordsZeroClassifyCalls) {
  constexpr std::size_t kRecords = 10000;
  ScopedDir dir("warm_10k");
  std::vector<PairwiseProblem> problems;
  problems.reserve(kRecords);
  {
    ResultStore writer(dir.path(), {16});
    for (std::size_t i = 0; i < kRecords; ++i) {
      problems.push_back(synthetic_problem(i));
      writer.put(classified_record(problems.back(), ComplexityClass::kConstant));
    }
    ASSERT_EQ(writer.size(), kRecords);
    EXPECT_EQ(writer.commit(), 16u);
  }

  // Cold start: directory read + warm_start, then a full batch over the
  // same 10^4 problems must be served entirely from the cache — zero
  // decider runs, confirmed by the cache's own counters.
  ResultStore store(dir.path(), {16});
  const LoadReport report = store.load();
  EXPECT_TRUE(report.dirty.empty());
  ASSERT_EQ(report.records, kRecords);
  BatchCache cache;
  ASSERT_EQ(store.warm_start(cache), kRecords);

  BatchOptions options;
  options.cache = &cache;
  const std::vector<BatchEntry> entries = classify_batch(problems, options);
  ASSERT_EQ(entries.size(), kRecords);
  EXPECT_EQ(cache.hits(), kRecords);
  EXPECT_EQ(cache.misses(), 0u);
  for (const BatchEntry& entry : entries) {
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE(entry.from_cache);
    EXPECT_EQ(entry.classified().complexity(), ComplexityClass::kConstant);
  }
  const BatchSummary summary = summarize_batch(entries);
  EXPECT_EQ(summary.ok, kRecords);
  EXPECT_EQ(summary.failed, 0u);
}

// ----------------------------------------------------- crash consistency

/// The record sets a shard file may legally hold after an interrupted
/// commit: exactly its slice of the old store or of the new store.
using KeyToClass = std::map<std::string, ComplexityClass>;

KeyToClass classes_of(const std::vector<StoreRecord>& records) {
  KeyToClass map;
  for (const StoreRecord& record : records) {
    map.emplace(record.cache_key(), *record.classified);
  }
  return map;
}

TEST(StoreFaultSweep, CommitIsOldCompleteOrNewCompletePerShard) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "needs -DLCLPATH_FAULT_INJECTION=ON";
  }
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kProblems = 12;

  std::vector<StoreRecord> old_records, new_records;
  for (std::size_t i = 0; i < kProblems; ++i) {
    old_records.push_back(
        classified_record(synthetic_problem(i), ComplexityClass::kConstant));
    new_records.push_back(
        classified_record(synthetic_problem(i), ComplexityClass::kLogStar));
  }
  const KeyToClass old_classes = classes_of(old_records);
  const KeyToClass new_classes = classes_of(new_records);

  // Measure the clean commit's occurrence counts: armed at infinity,
  // every point counts but none fires.
  std::map<fault::IoPoint, std::uint64_t> clean;
  {
    ScopedDir dir("sweep_clean");
    ResultStore store(dir.path(), {kShards});
    for (const StoreRecord& record : old_records) store.put(record);
    store.commit();
    for (const StoreRecord& record : new_records) store.put(record);
    fault::arm_io(fault::IoPoint::kWrite, ~std::uint64_t{0});
    EXPECT_EQ(store.commit(), kShards);
    for (const fault::IoPoint point :
         {fault::IoPoint::kWrite, fault::IoPoint::kFsync, fault::IoPoint::kRename}) {
      clean[point] = fault::io_occurrences(point);
      EXPECT_GT(clean[point], 0u) << static_cast<int>(point);
    }
    fault::disarm_io();
    EXPECT_FALSE(fault::io_fired());
  }

  for (const auto& [point, total] : clean) {
    for (std::uint64_t at = 0; at < total; ++at) {
      ScopedDir dir("sweep");
      ResultStore store(dir.path(), {kShards});
      for (const StoreRecord& record : old_records) store.put(record);
      ASSERT_EQ(store.commit(), kShards);
      for (const StoreRecord& record : new_records) store.put(record);

      fault::arm_io(point, at);
      EXPECT_THROW(store.commit(), StoreIoError)
          << "point " << static_cast<int>(point) << " at " << at;
      EXPECT_TRUE(fault::io_fired());
      fault::disarm_io();

      // Every shard file on disk decodes whole and is its complete old
      // slice or its complete new slice — never a torn mix, and the
      // crashed temp file is invisible.
      EXPECT_TRUE(fsck(dir.path()).clean);
      std::size_t old_files = 0, new_files = 0;
      for (const std::string& file : list_shard_files(dir.path())) {
        const ShardLoadResult loaded = decode_shard(read_file(file));
        ASSERT_TRUE(loaded.ok)
            << file << " torn by " << static_cast<int>(point) << "@" << at << ": "
            << loaded.error;
        ASSERT_FALSE(loaded.records.empty()) << file;
        bool all_old = true, all_new = true;
        for (const StoreRecord& record : loaded.records) {
          const std::string key = record.cache_key();
          ASSERT_TRUE(record.ok()) << file;
          all_old &= (*record.classified == old_classes.at(key));
          all_new &= (*record.classified == new_classes.at(key));
        }
        EXPECT_TRUE(all_old || all_new)
            << file << " mixes old and new records after "
            << static_cast<int>(point) << "@" << at;
        old_files += all_old && !all_new;
        new_files += all_new && !all_old;
      }

      // Retrying the failed commit verbatim finishes the remaining
      // shards; the store then reloads fully new.
      EXPECT_GT(store.commit(), 0u);
      ResultStore recovered(dir.path(), {kShards});
      const LoadReport report = recovered.load();
      EXPECT_TRUE(report.dirty.empty());
      KeyToClass recovered_classes;
      for (const auto& [key, record] : recovered.records()) {
        recovered_classes.emplace(key, *record.classified);
      }
      EXPECT_EQ(recovered_classes, new_classes);
      EXPECT_TRUE(fsck(dir.path()).clean);
    }
  }
}

TEST(StoreFaultSweep, LoadFaultMakesShardDirtyNotFatal) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "needs -DLCLPATH_FAULT_INJECTION=ON";
  }
  ScopedDir dir("load_fault");
  ResultStore store(dir.path(), {1});
  store.put(classified_record(catalog::coloring(3), ComplexityClass::kLogStar));
  store.commit();

  fault::arm_io(fault::IoPoint::kLoad, 0);
  ResultStore reloaded(dir.path(), {1});
  const LoadReport report = reloaded.load();
  fault::disarm_io();
  ASSERT_EQ(report.dirty.size(), 1u);
  EXPECT_EQ(reloaded.size(), 0u);

  // The bytes on disk were always fine; a clean retry sees them.
  ResultStore retried(dir.path(), {1});
  EXPECT_TRUE(retried.load().dirty.empty());
  EXPECT_EQ(retried.size(), 1u);
}

// ------------------------------------------------------------ hot reload

TEST(CatalogServer, ServesAndHotReloads) {
  ScopedDir dir("serve_reload");
  ResultStore store(dir.path(), {2});
  StoreRecord first = classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  store.put(first);
  store.commit();

  CatalogServer server(dir.path());
  ReloadReport report = server.poll();
  EXPECT_GE(report.reloaded, 1u);
  ASSERT_NE(server.snapshot()->find(first.cache_key()), nullptr);
  const std::uint64_t generation = server.generation();

  // An untouched directory publishes nothing new.
  report = server.poll();
  EXPECT_EQ(report.reloaded, 0u);
  EXPECT_EQ(server.generation(), generation);

  // A committed change is picked up and swapped in.
  StoreRecord second =
      classified_record(catalog::constant_output(), ComplexityClass::kConstant);
  store.put(second);
  store.commit();
  report = server.poll();
  EXPECT_GE(report.reloaded, 1u);
  EXPECT_GT(server.generation(), generation);
  EXPECT_NE(server.snapshot()->find(second.cache_key()), nullptr);
  EXPECT_NE(server.snapshot()->find(first.cache_key()), nullptr);
}

TEST(CatalogServer, RejectsCorruptedRewriteAndKeepsServing) {
  ScopedDir dir("serve_reject");
  ResultStore store(dir.path(), {1});
  StoreRecord record = classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  store.put(record);
  store.commit();
  const std::string shard_file = list_shard_files(dir.path()).at(0);

  CatalogServer server(dir.path());
  server.poll();
  ASSERT_NE(server.snapshot()->find(record.cache_key()), nullptr);
  const std::uint64_t generation = server.generation();

  // Corrupt the shard in place (a torn rewrite / bit rot). The next poll
  // must reject it — and keep answering from the last good snapshot.
  std::string bytes = read_file(shard_file);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(shard_file, bytes + "trailing garbage");
  const ReloadReport rejected = server.poll();
  EXPECT_GE(rejected.rejected, 1u);
  EXPECT_GE(server.rejections(), 1u);
  EXPECT_EQ(server.generation(), generation) << "a rejected shard was published";
  ASSERT_NE(server.snapshot()->find(record.cache_key()), nullptr)
      << "server stopped serving the last good state";

  // An untouched bad file is not re-counted forever...
  EXPECT_EQ(server.poll().rejected, 0u);

  // ...and a valid rewrite recovers, serving both old key and new.
  StoreRecord extra =
      classified_record(catalog::constant_output(), ComplexityClass::kConstant);
  write_file(shard_file, encode_shard({record, extra}));
  const ReloadReport recovered = server.poll();
  EXPECT_GE(recovered.reloaded, 1u);
  EXPECT_GT(server.generation(), generation);
  EXPECT_NE(server.snapshot()->find(record.cache_key()), nullptr);
  EXPECT_NE(server.snapshot()->find(extra.cache_key()), nullptr);
}

TEST(CatalogServer, RemovedShardLeavesTheSnapshot) {
  ScopedDir dir("serve_remove");
  ResultStore store(dir.path(), {1});
  StoreRecord record = classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  store.put(record);
  store.commit();

  CatalogServer server(dir.path());
  server.poll();
  ASSERT_EQ(server.snapshot()->size(), 1u);
  fs::remove(list_shard_files(dir.path()).at(0));
  const ReloadReport report = server.poll();
  EXPECT_EQ(report.removed, 1u);
  EXPECT_EQ(server.snapshot()->size(), 0u);
}

TEST(CatalogServer, InjectedLoadFaultIsRejectedLikeCorruption) {
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "needs -DLCLPATH_FAULT_INJECTION=ON";
  }
  ScopedDir dir("serve_load_fault");
  ResultStore store(dir.path(), {1});
  StoreRecord record = classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  store.put(record);
  store.commit();

  CatalogServer server(dir.path());
  server.poll();
  ASSERT_NE(server.snapshot()->find(record.cache_key()), nullptr);

  // A changed file whose read fails mid-reload: rejected, old state kept.
  StoreRecord extra =
      classified_record(catalog::constant_output(), ComplexityClass::kConstant);
  store.put(extra);
  store.commit();
  fault::arm_io(fault::IoPoint::kLoad, 0);
  const ReloadReport report = server.poll();
  fault::disarm_io();
  EXPECT_GE(report.rejected, 1u);
  ASSERT_NE(server.snapshot()->find(record.cache_key()), nullptr);
  EXPECT_EQ(server.snapshot()->find(extra.cache_key()), nullptr);

  // The transient fault clears: rewrite (stat changes) and poll again.
  store.put(classified_record(synthetic_problem(21), ComplexityClass::kLinear));
  store.commit();
  EXPECT_GE(server.poll().reloaded, 1u);
  EXPECT_NE(server.snapshot()->find(extra.cache_key()), nullptr);
}

TEST(CatalogServer, ConcurrentReadersSurviveSwaps) {
  // The RCU contract under fire: reader threads hold snapshots across
  // the poller's swaps (including rejected polls) and must always see a
  // complete, internally consistent map. The TSan CI job runs this.
  ScopedDir dir("serve_rcu");
  ResultStore store(dir.path(), {1});
  StoreRecord a = classified_record(catalog::coloring(3), ComplexityClass::kLogStar);
  StoreRecord b =
      classified_record(catalog::constant_output(), ComplexityClass::kConstant);
  store.put(a);
  store.commit();
  const std::string shard_file = list_shard_files(dir.path()).at(0);
  const std::string one_record = encode_shard({a});
  const std::string two_records = encode_shard({a, b});

  CatalogServer server(dir.path());
  server.poll();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const auto snapshot = server.snapshot();
        const std::size_t size = snapshot->size();
        EXPECT_TRUE(size == 1 || size == 2) << size;
        // `a` is in every published state; a held snapshot must answer
        // consistently even while the poller swaps underneath.
        EXPECT_NE(snapshot->find(a.cache_key()), nullptr);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 30; ++round) {
    write_file(shard_file, (round % 2) ? two_records : one_record);
    server.poll();
    if (round % 5 == 0) {
      // A corrupted interlude: rejected, readers keep their view.
      write_file(shard_file, "lclshard 1 totally bogus\n");
      server.poll();
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(server.generation(), 0u);
}

}  // namespace
}  // namespace lclpath::store
