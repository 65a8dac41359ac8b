// Plain-text (de)serialization of pairwise LCL problems.
//
// The paper's premise is that an LCL has a finite description which can be
// handed to a decision procedure; this is that description, as a
// line-oriented format:
//
//   lcl 3-coloring
//   topology directed-cycle
//   inputs _
//   outputs c0 c1 c2
//   node _ c0
//   node _ c1
//   node _ c2
//   edge c0 c1
//   ...
//   end
//
// Path problems may additionally carry `first <in> <out>` lines (the
// distinct node constraint for the path start) and a single
// `last <out> ...` line (the allowed-output mask for the path end); both
// are omitted when they equal the defaults, so problems without endpoint
// constraints serialize exactly as before.
//
// Lines starting with '#' are comments. Used by the examples and by the
// golden-file tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "lcl/problem.hpp"

namespace lclpath {

/// The text above, allocated once at its exact size. A name
/// parse_problem would not read back is rewritten: a blank name becomes
/// `unnamed` (the parser's default) and '\n', '\r', '\v', '\f' become
/// spaces. Names are cosmetic, so the problem reads back operator==-equal.
std::string serialize(const PairwiseProblem& problem);
/// Appends serialize(problem) to `out`.
void serialize(const PairwiseProblem& problem, std::string& out);
/// Writes serialize(problem) to `out`.
void serialize(const PairwiseProblem& problem, std::ostream& out);

/// Parses the format above in one pass over `text`: lines split on '\n',
/// tokens on the whitespace `operator>>` skips in the C locale, and a line
/// whose first character outside " \t\r" is '#' is a comment. Throws
/// std::invalid_argument with a line number on malformed input and never
/// crashes on hostile bytes. Malformed includes truncated blocks (no
/// 'end'), unknown keywords or labels, duplicate 'lcl'/'topology'/
/// 'inputs'/'outputs' declarations, duplicate labels within an alphabet,
/// and alphabets beyond an internal size cap (absurd declarations would
/// otherwise be allocation bombs downstream). Batch pipelines surface
/// these as BatchErrorKind::kMalformed.
PairwiseProblem parse_problem(std::string_view text);

/// Parses concatenated problem blocks (each terminated by `end`) until the
/// end of the text. Blank lines and comments between blocks are skipped.
std::vector<PairwiseProblem> parse_problems(std::string_view text);
std::vector<PairwiseProblem> parse_problems(std::istream& in);

/// The serialized form minus the name line: two problems have the same key
/// iff they are operator==-equal (names are cosmetic there too). Used as
/// the memo-cache identity for batch classification. Allocated once at its
/// exact size.
std::string canonical_key(const PairwiseProblem& problem);

/// FNV-1a of canonical_key(); cheap fingerprint for hash maps. Callers
/// that cannot tolerate collisions must compare keys on hash hits. The
/// string overload hashes an already-computed canonical key without
/// re-serializing the problem.
std::uint64_t canonical_hash(const PairwiseProblem& problem);
std::uint64_t canonical_hash(std::string_view canonical_key);

}  // namespace lclpath
