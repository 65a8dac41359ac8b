// Named finite alphabets (input and output label sets of an LCL).
//
// LCL problems in the paper are defined over constant-size label sets
// Sigma_in / Sigma_out. Internally labels are dense indices (0..size-1);
// the Alphabet keeps the human-readable names for serialization, examples
// and error messages.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lclpath {

/// Dense index of a label within its alphabet.
using Label = std::uint32_t;

/// An ordered set of named labels. Indices are assigned in insertion order.
class Alphabet {
 public:
  Alphabet() = default;
  /// Convenience: alphabet with the given names, in order.
  explicit Alphabet(std::vector<std::string> names);

  /// Adds a label (must be new) and returns its index.
  Label add(std::string name);
  /// Adds the label if absent; returns its index either way.
  Label add_or_get(std::string_view name);

  /// Room for `n` labels, so adding them allocates nothing more.
  void reserve(std::size_t n);

  std::size_t size() const { return names_.size(); }
  const std::string& name(Label label) const;
  std::optional<Label> find(std::string_view name) const;
  /// Like find() but throws std::out_of_range with a helpful message.
  Label at(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name).has_value(); }

  const std::vector<std::string>& names() const { return names_; }

  bool operator==(const Alphabet& other) const { return names_ == other.names_; }

  /// "{a, b, c}"
  std::string to_string() const;

 private:
  /// First position of order_ whose name is not less than `name`.
  std::vector<Label>::const_iterator lower_bound(std::string_view name) const;

  std::vector<std::string> names_;
  /// Every label, sorted by name: find() is a binary search, and the index
  /// costs 4 bytes per label rather than a hash node holding a second copy
  /// of the name.
  std::vector<Label> order_;
};

/// A word over an alphabet, stored as dense label indices. The decidability
/// machinery manipulates input words of paths; this alias keeps signatures
/// readable.
using Word = std::vector<Label>;

/// Renders a word with label names separated by spaces.
std::string word_to_string(const Alphabet& alphabet, const Word& word);

/// Parses a space-separated word; throws std::out_of_range on unknown names.
Word word_from_string(const Alphabet& alphabet, std::string_view text);

/// Reverse of a word.
Word reversed(const Word& word);

/// w repeated k times.
Word repeated(const Word& word, std::size_t k);

/// Concatenation.
Word concat(const Word& a, const Word& b);

/// Enumerates all words of the given length over an alphabet of
/// `alphabet_size` labels, invoking fn(word) for each. Lexicographic order.
void for_each_word(std::size_t alphabet_size, std::size_t length,
                   const std::function<void(const Word&)>& fn);

}  // namespace lclpath
