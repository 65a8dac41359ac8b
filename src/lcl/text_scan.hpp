// Line and token scanning over a string_view, shared by the problem codec
// (lcl/serialize.cpp) and the shard codec (store/shard.cpp). Neither
// allocates: lines and tokens are views into the scanned text.
#pragma once

#include <cstddef>
#include <string_view>

namespace lclpath::text {

/// The separators `operator>>` skips in the C locale.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Pops the next line off `rest` into `line`, without its '\n'; false once
/// `rest` is empty. Counts lines the way std::getline does: a last line
/// without '\n' is a line, the empty tail after a final '\n' is not.
inline bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t newline = rest.find('\n');
  if (newline == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
  }
  return true;
}

/// Pops the next whitespace-separated token off `rest`; empty when none is
/// left.
inline std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

}  // namespace lclpath::text
