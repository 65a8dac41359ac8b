#include "store/shard.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/fault_injection.hpp"
#include "lcl/serialize.hpp"

namespace lclpath::store {

namespace {

const char* class_word(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kUnsolvable: return "unsolvable";
    case ComplexityClass::kConstant: return "constant";
    case ComplexityClass::kLogStar: return "log-star";
    case ComplexityClass::kLinear: return "linear";
  }
  return "linear";
}

bool parse_class(const std::string& word, ComplexityClass* out) {
  if (word == "unsolvable") return *out = ComplexityClass::kUnsolvable, true;
  if (word == "constant") return *out = ComplexityClass::kConstant, true;
  if (word == "log-star") return *out = ComplexityClass::kLogStar, true;
  if (word == "linear") return *out = ComplexityClass::kLinear, true;
  return false;
}

bool parse_error_kind(const std::string& word, BatchErrorKind* out) {
  for (std::size_t k = 0; k < kNumBatchErrorKinds; ++k) {
    const auto kind = static_cast<BatchErrorKind>(k);
    if (word == to_string(kind)) return *out = kind, true;
  }
  return false;
}

std::string checksum_hex(std::uint64_t checksum) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buffer;
}

/// The error message travels on one `message` line; newlines would break
/// the framing, so they are flattened to spaces (the message is for
/// humans and retry policy keys off the kind, never the text).
std::string flatten(std::string message) {
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return message;
}

ShardLoadResult dirty(std::string why) {
  ShardLoadResult result;
  result.ok = false;
  result.error = std::move(why);
  return result;
}

}  // namespace

std::string StoreRecord::cache_key() const {
  return canonical_key(problem) +
         cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
}

std::string encode_shard(const std::vector<StoreRecord>& records) {
  std::ostringstream payload;
  for (const StoreRecord& record : records) {
    payload << "record";
    if (record.ok()) {
      payload << " class " << class_word(*record.classified) << "\n";
    } else {
      const BatchError& error =
          record.observation ? *record.observation
                             : BatchError{BatchErrorKind::kInternal, "missing"};
      payload << " error " << to_string(error.kind) << "\n";
      payload << "message " << flatten(error.message) << "\n";
    }
    serialize(record.problem, payload);
  }
  const std::string body = payload.str();
  std::ostringstream out;
  out << "lclshard " << kShardFormatVersion << " " << records.size() << " "
      << checksum_hex(canonical_hash(body)) << "\n"
      << body;
  return out.str();
}

ShardLoadResult decode_shard(const std::string& bytes) {
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos) return dirty("missing header line");
  std::istringstream header(bytes.substr(0, header_end));
  std::string magic;
  std::uint32_t version = 0;
  std::size_t declared = 0;
  std::string checksum_text;
  if (!(header >> magic >> version >> declared >> checksum_text) ||
      magic != "lclshard") {
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
  char* end = nullptr;
  result.checksum = std::strtoull(checksum_text.c_str(), &end, 16);
  if (end == checksum_text.c_str() || *end != '\0' || checksum_text.size() != 16) {
    return dirty("malformed checksum field");
  }
  const std::string_view payload(bytes.data() + header_end + 1,
                                 bytes.size() - header_end - 1);
  if (canonical_hash(payload) != result.checksum) {
    return dirty("checksum mismatch (torn or corrupted payload)");
  }

  // The payload is now authenticated, but still parsed defensively: any
  // structural surprise (hostile bytes that happened to carry a matching
  // checksum, or a writer bug) makes the shard dirty, never a crash.
  try {
    std::istringstream in{std::string(payload)};
    std::string line;
    std::size_t line_no = 1;  // the header was line 1 of the file
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string keyword;
      fields >> keyword;
      if (keyword != "record") {
        return dirty("line " + std::to_string(line_no) + ": expected 'record', got '" +
                     keyword + "'");
      }
      StoreRecord record;
      std::string outcome_keyword, outcome_word;
      if (!(fields >> outcome_keyword >> outcome_word)) {
        return dirty("line " + std::to_string(line_no) + ": malformed record header");
      }
      if (outcome_keyword == "class") {
        ComplexityClass c;
        if (!parse_class(outcome_word, &c)) {
          return dirty("line " + std::to_string(line_no) + ": unknown class '" +
                       outcome_word + "'");
        }
        record.classified = c;
      } else if (outcome_keyword == "error") {
        BatchError error;
        if (!parse_error_kind(outcome_word, &error.kind)) {
          return dirty("line " + std::to_string(line_no) + ": unknown error kind '" +
                       outcome_word + "'");
        }
        if (!std::getline(in, line)) {
          return dirty("line " + std::to_string(line_no) + ": truncated error record");
        }
        ++line_no;
        if (line.rfind("message", 0) != 0) {
          return dirty("line " + std::to_string(line_no) + ": expected 'message' line");
        }
        error.message = line.size() > 8 ? line.substr(8) : std::string();
        record.observation = std::move(error);
      } else {
        return dirty("line " + std::to_string(line_no) + ": expected 'class' or 'error'");
      }

      // Collect the problem block up to its own `end` terminator.
      std::string block;
      bool saw_end = false;
      while (std::getline(in, line)) {
        ++line_no;
        block += line;
        block += '\n';
        std::istringstream block_fields(line);
        std::string first;
        if (block_fields >> first && first == "end") {
          saw_end = true;
          break;
        }
      }
      if (!saw_end) {
        return dirty("line " + std::to_string(line_no) + ": truncated problem block");
      }
      record.problem = parse_problem(block);
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
  std::ifstream file(path, std::ios::binary);
  if (!file) return dirty("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (!file.good() && !file.eof()) return dirty("read error on " + path);
  return decode_shard(buffer.str());
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
