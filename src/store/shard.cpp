#include "store/shard.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>

#include "core/fault_injection.hpp"
#include "lcl/serialize.hpp"
#include "lcl/text_scan.hpp"

namespace lclpath::store {

namespace {

using text::next_line;
using text::next_token;

const char* class_word(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kUnsolvable: return "unsolvable";
    case ComplexityClass::kConstant: return "constant";
    case ComplexityClass::kLogStar: return "log-star";
    case ComplexityClass::kLinear: return "linear";
  }
  return "linear";
}

bool parse_class(std::string_view word, ComplexityClass* out) {
  if (word == "unsolvable") return *out = ComplexityClass::kUnsolvable, true;
  if (word == "constant") return *out = ComplexityClass::kConstant, true;
  if (word == "log-star") return *out = ComplexityClass::kLogStar, true;
  if (word == "linear") return *out = ComplexityClass::kLinear, true;
  return false;
}

bool parse_error_kind(std::string_view word, BatchErrorKind* out) {
  for (std::size_t k = 0; k < kNumBatchErrorKinds; ++k) {
    const auto kind = static_cast<BatchErrorKind>(k);
    if (word == to_string(kind)) return *out = kind, true;
  }
  return false;
}

/// The whole token as a number in `base`, or false.
template <typename T>
bool parse_number(std::string_view token, T* out, int base = 10) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out, base);
  return !token.empty() && ec == std::errc() && ptr == end;
}

constexpr std::size_t kChecksumDigits = 16;

void write_checksum_hex(std::uint64_t checksum, char* digits) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = kChecksumDigits; i-- > 0; checksum >>= 4) {
    digits[i] = kHex[checksum & 0xf];
  }
}

ShardLoadResult dirty(std::string why) {
  ShardLoadResult result;
  result.ok = false;
  result.error = std::move(why);
  return result;
}

/// dirty("line N: " + the pieces, concatenated).
template <typename... Pieces>
ShardLoadResult dirty_at(std::size_t line_no, const Pieces&... pieces) {
  std::string why = "line " + std::to_string(line_no) + ": ";
  (why.append(pieces), ...);
  return dirty(std::move(why));
}

}  // namespace

std::string StoreRecord::cache_key() const {
  return canonical_key(problem) +
         cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
}

std::string encode_shard(const std::vector<StoreRecord>& records) {
  std::vector<const StoreRecord*> pointers;
  pointers.reserve(records.size());
  for (const StoreRecord& record : records) pointers.push_back(&record);
  return encode_shard(pointers);
}

std::string encode_shard(const std::vector<const StoreRecord*>& records) {
  std::string out = "lclshard " + std::to_string(kShardFormatVersion) + " " +
                    std::to_string(records.size()) + " ";
  const std::size_t checksum_at = out.size();
  out.append(kChecksumDigits, '0');
  out.push_back('\n');
  const std::size_t payload_at = out.size();
  for (const StoreRecord* const entry : records) {
    const StoreRecord& record = *entry;
    out.append("record");
    if (record.ok()) {
      out.append(" class ").append(class_word(*record.classified)).push_back('\n');
    } else {
      const BatchError& error =
          record.observation ? *record.observation
                             : BatchError{BatchErrorKind::kInternal, "missing"};
      out.append(" error ").append(to_string(error.kind)).append("\nmessage ");
      // The message travels on one line; newlines would break the framing,
      // so they become spaces (the message is for humans and retry policy
      // keys off the kind, never the text).
      const std::size_t message_at = out.size();
      out.append(error.message);
      std::replace_if(out.begin() + static_cast<std::ptrdiff_t>(message_at), out.end(),
                      [](char c) { return c == '\n' || c == '\r'; }, ' ');
      out.push_back('\n');
    }
    serialize(record.problem, out);
  }
  const std::string_view payload = std::string_view(out).substr(payload_at);
  write_checksum_hex(canonical_hash(payload), out.data() + checksum_at);
  return out;
}

ShardLoadResult decode_shard(std::string_view bytes) {
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string_view::npos) return dirty("missing header line");
  std::string_view header = bytes.substr(0, header_end);
  const std::string_view magic = next_token(header);
  const std::string_view version_text = next_token(header);
  const std::string_view declared_text = next_token(header);
  const std::string_view checksum_text = next_token(header);
  std::uint32_t version = 0;
  std::size_t declared = 0;
  if (magic != "lclshard" || !parse_number(version_text, &version) ||
      !parse_number(declared_text, &declared) || checksum_text.empty()) {
    return dirty("bad magic/header");
  }
  ShardLoadResult result;
  result.version = version;
  result.declared_records = declared;
  if (version != kShardFormatVersion) {
    ShardLoadResult other = dirty("unsupported format version " + std::to_string(version));
    other.version = version;  // lets the loader tell an older format from garbage
    return other;
  }
  if (checksum_text.size() != kChecksumDigits ||
      !parse_number(checksum_text, &result.checksum, 16)) {
    return dirty("malformed checksum field");
  }
  const std::string_view payload = bytes.substr(header_end + 1);
  if (canonical_hash(payload) != result.checksum) {
    return dirty("checksum mismatch (torn or corrupted payload)");
  }

  // The payload is now authenticated, but still parsed defensively: any
  // structural surprise (hostile bytes that happened to carry a matching
  // checksum, or a writer bug) makes the shard dirty, never a crash.
  // Records are framed in place; each problem block is parsed as a view.
  try {
    std::string_view rest = payload;
    std::string_view line;
    std::size_t line_no = 1;  // the header was line 1 of the file
    while (next_line(rest, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      std::string_view fields = line;
      const std::string_view keyword = next_token(fields);
      if (keyword != "record") {
        return dirty_at(line_no, "expected 'record', got '", keyword, "'");
      }
      StoreRecord record;
      const std::string_view outcome_keyword = next_token(fields);
      const std::string_view outcome_word = next_token(fields);
      if (outcome_word.empty()) return dirty_at(line_no, "malformed record header");
      if (outcome_keyword == "class") {
        ComplexityClass c;
        if (!parse_class(outcome_word, &c)) {
          return dirty_at(line_no, "unknown class '", outcome_word, "'");
        }
        record.classified = c;
      } else if (outcome_keyword == "error") {
        BatchError error;
        if (!parse_error_kind(outcome_word, &error.kind)) {
          return dirty_at(line_no, "unknown error kind '", outcome_word, "'");
        }
        if (!next_line(rest, line)) return dirty_at(line_no, "truncated error record");
        ++line_no;
        if (!line.starts_with("message")) {
          return dirty_at(line_no, "expected 'message' line");
        }
        if (line.size() > 8) error.message.assign(line.substr(8));
        record.observation = std::move(error);
      } else {
        return dirty_at(line_no, "expected 'class' or 'error'");
      }

      // The problem block runs up to its own `end` terminator.
      const std::size_t block_at = payload.size() - rest.size();
      bool saw_end = false;
      while (!saw_end && next_line(rest, line)) {
        ++line_no;
        saw_end = next_token(line) == "end";
      }
      if (!saw_end) return dirty_at(line_no, "truncated problem block");
      record.problem =
          parse_problem(payload.substr(block_at, payload.size() - rest.size() - block_at));
      result.records.push_back(std::move(record));
    }
  } catch (const std::exception& e) {
    return dirty(std::string("payload parse failure: ") + e.what());
  }
  if (result.records.size() != declared) {
    return dirty("record count mismatch: header declares " + std::to_string(declared) +
                 ", payload holds " + std::to_string(result.records.size()));
  }
  result.ok = true;
  return result;
}

ShardLoadResult load_shard(const std::string& path) {
  if (fault::io_should_fail(fault::IoPoint::kLoad)) {
    return dirty("fault injection: scripted load failure");
  }
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return dirty("cannot open " + path);
  const std::streamoff size = file.tellg();
  if (size < 0) return dirty("read error on " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  file.seekg(0);
  if (!file.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    return dirty("read error on " + path);
  }
  return decode_shard(bytes);
}

void write_shard_atomic(const std::string& path, const std::string& bytes) {
  const std::string temp = path + ".tmp";
  const auto fail = [&temp](int fd, const std::string& what) -> void {
    const std::string detail = errno != 0 ? std::strerror(errno) : "injected fault";
    if (fd >= 0) ::close(fd);
    ::unlink(temp.c_str());
    throw StoreIoError("store commit: " + what + ": " + detail);
  };

  errno = 0;
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(-1, "open " + temp);

  // A single faulted write simulates the torn case: a prefix of the bytes
  // reaches the temp file, then the "device" fails. The destination file
  // is untouched either way — only the rename publishes.
  if (fault::io_should_fail(fault::IoPoint::kWrite)) {
    (void)!::write(fd, bytes.data(), bytes.size() / 2);
    errno = 0;
    fail(fd, "write " + temp);
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(fd, "write " + temp);
    }
    written += static_cast<std::size_t>(n);
  }

  if (fault::io_should_fail(fault::IoPoint::kFsync)) {
    errno = 0;
    fail(fd, "fsync " + temp);
  }
  if (::fsync(fd) != 0) fail(fd, "fsync " + temp);
  if (::close(fd) != 0) fail(-1, "close " + temp);

  if (fault::io_should_fail(fault::IoPoint::kRename)) {
    errno = 0;
    fail(-1, "rename " + temp + " -> " + path);
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    fail(-1, "rename " + temp + " -> " + path);
  }

  // Durability of the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  errno = 0;
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    throw StoreIoError("store commit: open dir " + dir + ": " + std::strerror(errno));
  }
  const bool dir_fault = fault::io_should_fail(fault::IoPoint::kFsync);
  if (dir_fault || ::fsync(dir_fd) != 0) {
    const std::string detail = dir_fault ? "injected fault" : std::strerror(errno);
    ::close(dir_fd);
    throw StoreIoError("store commit: fsync dir " + dir + ": " + detail);
  }
  ::close(dir_fd);
}

}  // namespace lclpath::store
