// Differential test of the problem and shard codecs against their iostream
// oracle (serialize_oracle.hpp).
//
// The library parses over string_views and writes by appending to one
// string; the oracle is the same codec written over istream/ostream. They
// must agree on:
//   * every accept/reject decision and every error text, line numbers
//     included, over the seeded 4000-case mutation corpus the fuzz test
//     uses (serialize_mutations.hpp);
//   * the parsed problem — operator==, name and topology;
//   * the bytes of serialize(), canonical_key() and encode_shard() on the
//     validation catalog and on seeded random problems over all four
//     topologies, `first`/`last` lines included;
//   * the decode_shard() verdict, error text and records on the inputs
//     the store's DecodeRejects* tests feed it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/rng.hpp"
#include "lcl/catalog.hpp"
#include "lcl/serialize.hpp"
#include "serialize_mutations.hpp"
#include "serialize_oracle.hpp"
#include "store/shard.hpp"

namespace lclpath {
namespace {

namespace oracle = testing::oracle;
using store::ShardLoadResult;
using store::StoreRecord;

/// What one parse did: the problem, or the exception's type and text.
struct ParseOutcome {
  std::optional<PairwiseProblem> problem;
  std::string error;
};

template <typename Parse>
ParseOutcome outcome_of(Parse&& parse) {
  ParseOutcome outcome;
  try {
    outcome.problem = parse();
  } catch (const std::exception& e) {
    outcome.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return outcome;
}

void expect_same_problem(const PairwiseProblem& actual, const PairwiseProblem& expected) {
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(actual.name(), expected.name());
  EXPECT_EQ(actual.topology(), expected.topology());
  EXPECT_EQ(actual.inputs(), expected.inputs());
  EXPECT_EQ(actual.outputs(), expected.outputs());
}

/// Allocated once at its exact size: no growth slack beyond what the
/// allocator rounds up.
void expect_tight(const std::string& text) { EXPECT_LE(text.capacity(), text.size() + 16); }

void expect_same_text(const PairwiseProblem& problem) {
  const std::string text = serialize(problem);
  EXPECT_EQ(text, oracle::serialize(problem)) << problem.name();
  expect_tight(text);
  const std::string key = canonical_key(problem);
  EXPECT_EQ(key, oracle::canonical_key(problem)) << problem.name();
  expect_tight(key);
  expect_same_problem(parse_problem(text), oracle::parse_problem(text));
}

const char* const kLabels[] = {"a", "b", "c0", "c1", "x-y", "_", "L:0", "#", "\x7f", "end"};

/// A seeded random problem: alphabets of 1-4 inputs and 1-6 outputs drawn
/// from kLabels, random node and edge relations, and on paths a random
/// first-node constraint and last-node mask (each sometimes absent).
PairwiseProblem random_problem(Rng& rng, std::size_t index) {
  constexpr Topology kTopologies[] = {Topology::kDirectedPath, Topology::kDirectedCycle,
                                      Topology::kUndirectedPath, Topology::kUndirectedCycle};
  const Topology topology = kTopologies[index % 4];
  const auto alphabet = [&rng](std::size_t max_size) {
    Alphabet labels;
    const std::size_t size = 1 + rng.next_below(max_size);
    for (const std::size_t i : rng.permutation(std::size(kLabels))) {
      if (labels.size() == size) break;
      labels.add(kLabels[i]);
    }
    return labels;
  };
  PairwiseProblem problem(std::string("random ").append(std::to_string(index)), alphabet(4),
                          alphabet(6), topology);
  const std::size_t ins = problem.num_inputs();
  const std::size_t outs = problem.num_outputs();
  for (Label in = 0; in < ins; ++in) {
    for (Label o = 0; o < outs; ++o) {
      if (rng.next_bool()) problem.allow_node(in, o);
    }
  }
  for (Label a = 0; a < outs; ++a) {
    for (Label b = 0; b < outs; ++b) {
      if (rng.next_bool()) problem.allow_edge(a, b);
    }
  }
  if (!is_cycle(topology)) {
    if (rng.next_bool()) {
      for (Label in = 0; in < ins; ++in) {
        for (Label o = 0; o < outs; ++o) {
          if (rng.next_bool(1, 3)) problem.allow_node_first(in, o);
        }
      }
    }
    if (rng.next_bool()) {
      BitVector allowed(outs);
      for (Label o = 0; o < outs; ++o) allowed.set(o, rng.next_bool());
      problem.restrict_last(allowed);
    }
  }
  return problem;
}

std::vector<PairwiseProblem> random_problems(std::size_t count) {
  Rng rng(0x5e71a1);
  std::vector<PairwiseProblem> problems;
  for (std::size_t i = 0; i < count; ++i) problems.push_back(random_problem(rng, i));
  return problems;
}

void expect_same_decode(const std::string& bytes) {
  const ShardLoadResult actual = store::decode_shard(bytes);
  const ShardLoadResult expected = oracle::decode_shard(bytes);
  ASSERT_EQ(actual.ok, expected.ok) << actual.error << " vs " << expected.error;
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.version, expected.version);
  EXPECT_EQ(actual.checksum, expected.checksum);
  EXPECT_EQ(actual.declared_records, expected.declared_records);
  ASSERT_EQ(actual.records.size(), expected.records.size());
  for (std::size_t i = 0; i < actual.records.size(); ++i) {
    const StoreRecord& a = actual.records[i];
    const StoreRecord& e = expected.records[i];
    expect_same_problem(a.problem, e.problem);
    EXPECT_EQ(a.classified, e.classified) << i;
    ASSERT_EQ(a.observation.has_value(), e.observation.has_value()) << i;
    if (a.observation) {
      EXPECT_EQ(a.observation->kind, e.observation->kind) << i;
      EXPECT_EQ(a.observation->message, e.observation->message) << i;
    }
  }
}

StoreRecord classified(PairwiseProblem problem, ComplexityClass c) {
  StoreRecord record;
  record.problem = std::move(problem);
  record.classified = c;
  return record;
}

std::string coloring_shard() {
  return store::encode_shard({classified(catalog::coloring(3), ComplexityClass::kLogStar)});
}

TEST(SerializeDiff, MutationCorpusAgreesWithOracle) {
  std::size_t accepted = 0;
  for (const std::string& text : testing::seeded_mutations()) {
    const ParseOutcome actual = outcome_of([&] { return parse_problem(text); });
    const ParseOutcome expected = outcome_of([&] { return oracle::parse_problem(text); });
    ASSERT_EQ(actual.error, expected.error) << "input:\n" << text;
    ASSERT_EQ(actual.problem.has_value(), expected.problem.has_value());
    if (!actual.problem) continue;
    ++accepted;
    expect_same_problem(*actual.problem, *expected.problem);
    EXPECT_EQ(serialize(*actual.problem), oracle::serialize(*expected.problem));
    EXPECT_EQ(canonical_key(*actual.problem), oracle::canonical_key(*expected.problem));
  }
  // The corpus exercises both verdicts.
  EXPECT_GT(accepted, 50u);
  EXPECT_LT(accepted, 3950u);
}

// Hand-written texts for the scanning rules the mutation corpus rarely
// hits: which whitespace separates tokens, which marks a comment, how
// lines and line numbers are counted, and the order errors are found in.
TEST(SerializeDiff, ScanningEdgeCasesAgreeWithOracle) {
  const std::string head = "lcl p\ntopology directed-path\ninputs a b\noutputs x y\n";
  const std::vector<std::string> texts = {
      head + "node a x\nend\n",
      head + "node a x\nend",                       // no final newline
      head + "node a x\r\nedge x y\r\nend\r\n",  // CRLF
      head + "\v# not a comment\nend\n",          // '\v' before '#'
      head + "\f#\nend\n",
      head + "  \t# a comment\nnode a x\nend\n",
      head + "\r# a comment\nend\n",
      head + "\v\f\n\nend\n",                     // whitespace-only lines
      head + "node\va\fx\nedge x\ty\nend\n",     // every separator
      head + "node a\nend\n",
      head + "node a x y\nend\n",
      head + "edge x\nend\n",
      head + "first a x\nfirst b y\nlast\nend\n",
      head + "last x\nlast y\nlast q\nend\n",
      head + "last\nend\n",
      head + "node c x\nedge x q\nfirst a z\nlast w\nend\n",
      head + "first a z\nedge x q\nnode c x\nend\n",
      head + "edge x q\nnode c x\nend\n",
      head + "node a x\nend trailing\nnode junk\n",
      head + "node a x\nend\nlcl second\nend\n",
      "node a x\nlcl p\ninputs a\noutputs x\nend\n",  // pairs before alphabets
      "lcl\tspaced \v name \nlcl again\ninputs a\noutputs x\nend\n",
      "lcl\ninputs a\noutputs x\nend\n",
      "lcl  \t \ninputs a\noutputs x\nend\n",
      "topology\ninputs a\noutputs x\nend\n",
      "topology directed-path extra\ninputs a\noutputs x\nend\n",
      "topology sideways\ninputs a\noutputs x\nend\n",
      "inputs\noutputs x\nend\n",
      "inputs a a\noutputs x\nend\n",
      "inputs a\ninputs b\noutputs x\nend\n",
      "inputs a\noutputs x\n",
      "inputs a\nend\n",
      "outputs x\nend\n",
      "inputs a\noutputs x\nbogus a x\nend\n",
      "",
      "\n\n\n",
      "end\n",
      std::string("inputs a\0b\noutputs x\nnode a\0b x\nend\n", 36),
  };
  for (const std::string& text : texts) {
    const ParseOutcome actual = outcome_of([&] { return parse_problem(text); });
    const ParseOutcome expected = outcome_of([&] { return oracle::parse_problem(text); });
    EXPECT_EQ(actual.error, expected.error) << "input:\n" << text;
    ASSERT_EQ(actual.problem.has_value(), expected.problem.has_value()) << text;
    if (actual.problem) expect_same_problem(*actual.problem, *expected.problem);
  }
}

TEST(SerializeDiff, CatalogWritesTheOracleBytes) {
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    expect_same_text(entry.problem);
  }
}

TEST(SerializeDiff, RandomProblemsWriteTheOracleBytes) {
  const std::vector<PairwiseProblem> problems = random_problems(2400);
  std::size_t with_first = 0, with_last = 0;
  for (const PairwiseProblem& problem : problems) {
    expect_same_text(problem);
    with_first += problem.has_first_constraint();
    with_last += problem.last_mask().dim() != 0;
  }
  EXPECT_GT(with_first, 200u);
  EXPECT_GT(with_last, 200u);
}

TEST(SerializeDiff, ShardsEncodeAndDecodeLikeTheOracle) {
  const std::vector<PairwiseProblem> problems = random_problems(600);
  Rng rng(0x5a4d);
  for (std::size_t begin = 0; begin < problems.size(); begin += 40) {
    std::vector<StoreRecord> records;
    for (std::size_t i = begin; i < begin + 40 && i < problems.size(); ++i) {
      StoreRecord record;
      record.problem = problems[i];
      if (rng.next_bool(3, 4)) {
        record.classified = static_cast<ComplexityClass>(rng.next_below(4));
      } else {
        const auto kind = static_cast<BatchErrorKind>(rng.next_below(kNumBatchErrorKinds));
        record.observation = BatchError{kind, "failed\nafter " + std::to_string(i) + "\r ms"};
      }
      records.push_back(std::move(record));
    }
    const std::string bytes = store::encode_shard(records);
    ASSERT_EQ(bytes, oracle::encode_shard(records));
    expect_same_decode(bytes);
  }
  const std::vector<StoreRecord> none;
  EXPECT_EQ(store::encode_shard(none), oracle::encode_shard(none));
  expect_same_decode(store::encode_shard(none));
}

// The inputs of Store.DecodeRejects*, decoded by both codecs.
TEST(SerializeDiff, DecodeRejectsInputsAgreeWithOracle) {
  const std::string bytes = coloring_shard();
  for (std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{1}, std::size_t{0}}) {
    expect_same_decode(bytes.substr(0, keep));
  }
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    expect_same_decode(flipped);
  }
  std::string unknown_version = bytes;
  unknown_version.replace(0, 10, "lclshard 99");
  expect_same_decode(unknown_version);

  const std::size_t newline = bytes.find('\n');
  std::string lied = bytes;
  lied.replace(0, newline, "lclshard 2 2 " + bytes.substr(newline - 16, 16));
  expect_same_decode(lied);

  for (const char* hostile :
       {"", "garbage", "lclshard", "lclshard one two three", "lclshard 1 0 nothex!!\n",
        "\xff\xfe binary soup"}) {
    expect_same_decode(hostile);
  }
  expect_same_decode(bytes);
}

// Payloads whose checksum is right but whose structure is not: each
// error (and its line number) comes from the record framing or from the
// problem parser, past the header checks.
TEST(SerializeDiff, StructuralRejectsAgreeWithOracle) {
  const std::string problem = serialize(catalog::coloring(3));
  const std::string error_record = "record error timeout\nmessage slow\n" + problem;
  const std::vector<std::string> payloads = {
      "record class log-star\n" + problem,
      error_record + "record class linear\n" + problem,
      error_record + "# comment\n\nrecord class linear\n" + problem,
      error_record + "bogus class linear\n" + problem,
      error_record + " record class linear\n" + problem,
      error_record + "record class\n" + problem,
      error_record + "record class quadratic\n" + problem,
      error_record + "record error exploded\nmessage x\n" + problem,
      error_record + "record error budget\n",
      error_record + "record error budget\nmassage x\n" + problem,
      error_record + "record error budget\nmessage\n" + problem,
      error_record + "record error budget\nmessagey\n" + problem,
      error_record + "record verdict linear\n" + problem,
      error_record + "record class linear\n" + problem.substr(0, problem.size() - 4),
      error_record + "record class linear\nlcl x\ninputs a\nend\n",
      error_record + "record class linear\nlcl x\ninputs a\noutputs b\nnode a c\n end \n",
      "record class linear\r\n" + problem,
  };
  for (const std::string& payload : payloads) {
    for (const std::size_t declared : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      char checksum[17];
      std::snprintf(checksum, sizeof(checksum), "%016llx",
                    static_cast<unsigned long long>(canonical_hash(payload)));
      expect_same_decode("lclshard 2 " + std::to_string(declared) + " " + checksum + "\n" +
                         payload);
    }
  }
}

}  // namespace
}  // namespace lclpath
