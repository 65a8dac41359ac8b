// Parser hardening: parse_problem / parse_problems over hostile bytes.
//
// Contract under test (serialize.hpp): the parser either returns a valid
// problem or throws std::invalid_argument with a line number — it never
// crashes, never hangs, and never lets an absurd declaration (a
// million-label alphabet) through to become an allocation bomb in the
// classifier. The fuzz loop mutates valid catalog serializations with a
// seeded RNG (serialize_mutations.hpp) so every CI run exercises the same
// corpus.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lcl/catalog.hpp"
#include "lcl/serialize.hpp"
#include "serialize_mutations.hpp"

namespace lclpath {
namespace {

// The only acceptable behaviors: a parse that round-trips, or a clean
// std::invalid_argument. Anything else (other exception types, crashes)
// fails the test.
void expect_parse_is_total(const std::string& text) {
  try {
    const PairwiseProblem parsed = parse_problem(text);
    EXPECT_EQ(parse_problem(serialize(parsed)), parsed);
  } catch (const std::invalid_argument&) {
    // fine: structured rejection
  }
  try {
    std::istringstream in(text);
    (void)parse_problems(in);
  } catch (const std::invalid_argument&) {
  }
}

TEST(SerializeFuzz, CorpusRoundTrips) {
  for (const std::string& text : testing::mutation_corpus()) {
    const PairwiseProblem parsed = parse_problem(text);
    EXPECT_EQ(serialize(parsed), text);
  }
}

TEST(SerializeFuzz, SeededMutationsNeverCrashTheParser) {
  for (const std::string& text : testing::seeded_mutations()) expect_parse_is_total(text);
}

TEST(SerializeFuzz, TruncatedBlockIsRejected) {
  const std::string text = serialize(catalog::coloring(3));
  // Cut before the trailing "end\n": a truncated block must not parse.
  const std::string truncated = text.substr(0, text.size() - 4);
  EXPECT_THROW((void)parse_problem(truncated), std::invalid_argument);
  std::istringstream in(truncated);
  EXPECT_THROW((void)parse_problems(in), std::invalid_argument);
}

TEST(SerializeFuzz, DuplicateDeclarationLinesAreRejected) {
  for (const char* line :
       {"lcl again", "topology directed-cycle", "inputs _", "outputs x y"}) {
    std::string text = "lcl p\ntopology directed-cycle\ninputs _\noutputs a b\n";
    text += line;
    text += "\nnode _ a\nedge a b\nend\n";
    EXPECT_THROW((void)parse_problem(text), std::invalid_argument)
        << "duplicate line not rejected: " << line;
  }
}

TEST(SerializeFuzz, AbsurdAlphabetDeclarationIsRejectedCheaply) {
  // 100k labels on one 'outputs' line: must be rejected by the size cap,
  // not accepted into an O(|outputs|^2) edge table downstream.
  std::string text = "lcl bomb\ntopology directed-cycle\ninputs _\noutputs";
  for (int i = 0; i < 100000; ++i) text += " l" + std::to_string(i);
  text += "\nnode _ l0\nedge l0 l0\nend\n";
  EXPECT_THROW((void)parse_problem(text), std::invalid_argument);
}

TEST(SerializeFuzz, DuplicateLabelWithinAlphabetIsRejected) {
  const std::string text =
      "lcl p\ntopology directed-cycle\ninputs _\noutputs a a\n"
      "node _ a\nedge a a\nend\n";
  EXPECT_THROW((void)parse_problem(text), std::invalid_argument);
}

TEST(SerializeFuzz, MultiProblemStreamSurvivesATrailingMalformedBlock) {
  std::string text = serialize(catalog::coloring(3));
  text += "\nlcl broken\ntopology directed-cycle\ninputs _\n";  // no end
  std::istringstream in(text);
  EXPECT_THROW((void)parse_problems(in), std::invalid_argument);
}

}  // namespace
}  // namespace lclpath
