// Classify the whole validation catalog and print the landscape — the
// paper's headline: the complexity of every LCL on labeled paths/cycles
// is decidable, and is always O(1), Theta(log* n) or Theta(n).
// The catalog is classified as one parallel batch (decide/batch.hpp),
// which returns one Verdict per problem.
#include <cstdio>
#include <string>
#include <vector>

#include "decide/batch.hpp"

int main() {
  using namespace lclpath;
  const auto entries = catalog::validation_catalog();
  std::vector<PairwiseProblem> problems;
  problems.reserve(entries.size());
  for (const auto& entry : entries) problems.push_back(entry.problem);
  const std::vector<BatchEntry> batch = classify_batch(problems);

  std::printf("%-28s %-18s %-14s %s\n", "problem", "topology", "expected", "decided");
  bool all_match = true;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CatalogEntry& entry = entries[i];
    const std::string decided = batch[i].ok() ? to_string(batch[i].classified().complexity())
                                              : "error: " + batch[i].error();
    const bool match = batch[i].ok() && batch[i].classified().complexity() == entry.expected;
    all_match = all_match && match;
    std::printf("%-28s %-18s %-14s %s%s\n", entry.problem.name().c_str(),
                to_string(entry.problem.topology()).c_str(), to_string(entry.expected).c_str(),
                decided.c_str(), match ? "" : "  <-- MISMATCH");
  }
  std::printf("\n%s\n", all_match ? "All verdicts match the textbook classes."
                                  : "Some verdicts mismatch!");
  return all_match ? 0 : 1;
}
