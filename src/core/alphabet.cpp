#include "core/alphabet.hpp"

#include <algorithm>
#include <stdexcept>

namespace lclpath {

Alphabet::Alphabet(std::vector<std::string> names) {
  for (auto& n : names) add(std::move(n));
}

void Alphabet::reserve(std::size_t n) {
  names_.reserve(n);
  order_.reserve(n);
}

std::vector<Label>::const_iterator Alphabet::lower_bound(std::string_view name) const {
  return std::lower_bound(order_.begin(), order_.end(), name,
                          [this](Label label, std::string_view key) {
                            return std::string_view(names_[label]) < key;
                          });
}

Label Alphabet::add(std::string name) {
  const auto at = lower_bound(name);
  if (at != order_.end() && names_[*at] == name) {
    throw std::invalid_argument("Alphabet::add: duplicate label '" + name + "'");
  }
  const Label label = static_cast<Label>(names_.size());
  order_.insert(at, label);
  names_.push_back(std::move(name));
  return label;
}

Label Alphabet::add_or_get(std::string_view name) {
  if (auto found = find(name)) return *found;
  return add(std::string(name));
}

const std::string& Alphabet::name(Label label) const {
  if (label >= names_.size()) throw std::out_of_range("Alphabet::name: bad label index");
  return names_[label];
}

std::optional<Label> Alphabet::find(std::string_view name) const {
  const auto at = lower_bound(name);
  if (at == order_.end() || names_[*at] != name) return std::nullopt;
  return *at;
}

Label Alphabet::at(std::string_view name) const {
  if (auto found = find(name)) return *found;
  throw std::out_of_range("Alphabet::at: unknown label '" + std::string(name) + "' in " +
                          to_string());
}

std::string Alphabet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[i];
  }
  out += "}";
  return out;
}

std::string word_to_string(const Alphabet& alphabet, const Word& word) {
  std::string out;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += alphabet.name(word[i]);
  }
  return out;
}

Word word_from_string(const Alphabet& alphabet, std::string_view text) {
  Word word;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < text.size() && text[end] != ' ') ++end;
    if (end > pos) word.push_back(alphabet.at(text.substr(pos, end - pos)));
    pos = end;
  }
  return word;
}

Word reversed(const Word& word) { return Word(word.rbegin(), word.rend()); }

Word repeated(const Word& word, std::size_t k) {
  Word out;
  out.reserve(word.size() * k);
  for (std::size_t i = 0; i < k; ++i) out.insert(out.end(), word.begin(), word.end());
  return out;
}

Word concat(const Word& a, const Word& b) {
  Word out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

void for_each_word(std::size_t alphabet_size, std::size_t length,
                   const std::function<void(const Word&)>& fn) {
  Word word(length, 0);
  while (true) {
    fn(word);
    std::size_t i = length;
    while (i > 0) {
      --i;
      if (++word[i] < alphabet_size) break;
      word[i] = 0;
      if (i == 0) return;
    }
    if (length == 0) return;
  }
}

}  // namespace lclpath
