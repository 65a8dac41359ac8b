#include "core/bitmatrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace lclpath {

namespace {
constexpr std::size_t kWordBits = 64;

// Packed (dim <= 8) helpers. Entry (i, j) of a packed matrix is bit 8i + j.
constexpr std::uint64_t kByteLowBits = 0x0101010101010101ull;
constexpr std::uint64_t kDiagonal = 0x8040201008040201ull;

/// The dim x dim entries of a packed matrix: the low dim bits of the low
/// dim bytes.
std::uint64_t packed_mask(std::size_t dim) {
  const std::uint64_t rows =
      dim == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * dim)) - 1;
  const std::uint64_t cols = ((std::uint64_t{1} << dim) - 1) * kByteLowBits;
  return rows & cols;
}

/// 8x8 bit-matrix transpose by three delta swaps (2x2, 4x4, then 8x8
/// blocks); unused rows and columns stay zero because they map onto each
/// other.
std::uint64_t packed_transpose(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// out (zeroed here) = a * b over heap rows of `n` words each.
void heap_product(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                  std::size_t dim, std::size_t n) {
  std::fill_n(out, dim * n, 0);
  // Row-by-row: for every set bit k in row i of a, OR in row k of b.
  for (std::size_t i = 0; i < dim; ++i) {
    std::uint64_t* dst = out + i * n;
    const std::uint64_t* row = a + i * n;
    for (std::size_t w = 0; w < n; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const std::size_t k = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        const std::uint64_t* b_row = b + k * n;
        for (std::size_t ww = 0; ww < n; ++ww) dst[ww] |= b_row[ww];
      }
    }
  }
}
}  // namespace

void BitMatrix::allocate_heap() { heap_ = new std::uint64_t[num_words()](); }

void BitMatrix::copy_heap(const BitMatrix& other) {
  heap_ = new std::uint64_t[num_words()];
  std::copy_n(other.heap_, num_words(), heap_);
}

BitMatrix& BitMatrix::assign_heap(const BitMatrix& other) {
  if (this == &other) return *this;
  if (other.is_inline()) {
    release();
    dim_ = other.dim_;
    word_ = other.word_;
  } else if (dim_ == other.dim_) {
    std::copy_n(other.heap_, num_words(), heap_);  // same shape: reuse storage
  } else {
    *this = BitMatrix(other);
  }
  return *this;
}

BitMatrix BitMatrix::identity(std::size_t dim) {
  BitMatrix m(dim);
  if (m.is_inline()) {
    m.word_ = kDiagonal & packed_mask(dim);
  } else {
    for (std::size_t i = 0; i < dim; ++i) m.set(i, i, true);
  }
  return m;
}

BitMatrix BitMatrix::zero(std::size_t dim) { return BitMatrix(dim); }

BitMatrix BitMatrix::ones(std::size_t dim) {
  BitMatrix m(dim);
  if (m.is_inline()) {
    m.word_ = packed_mask(dim);
  } else {
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t j = 0; j < dim; ++j) m.set(i, j, true);
  }
  return m;
}

void BitMatrix::multiply_heap(const BitMatrix& other, BitMatrix& out) const {
  heap_product(heap_, other.heap_, out.heap_, dim_, words_per_row());
}

BitMatrix BitMatrix::operator|(const BitMatrix& other) const {
  assert(dim_ == other.dim_);
  BitMatrix result = *this;
  if (is_inline()) {
    result.word_ |= other.word_;
  } else {
    for (std::size_t i = 0; i < num_words(); ++i) result.heap_[i] |= other.heap_[i];
  }
  return result;
}

BitMatrix BitMatrix::operator&(const BitMatrix& other) const {
  assert(dim_ == other.dim_);
  BitMatrix result = *this;
  if (is_inline()) {
    result.word_ &= other.word_;
  } else {
    for (std::size_t i = 0; i < num_words(); ++i) result.heap_[i] &= other.heap_[i];
  }
  return result;
}

BitMatrix BitMatrix::transposed() const {
  BitMatrix result(dim_);
  if (is_inline()) {
    result.word_ = packed_transpose(word_);
    return result;
  }
  for (std::size_t i = 0; i < dim_; ++i)
    for (std::size_t j = 0; j < dim_; ++j)
      if (get(i, j)) result.set(j, i, true);
  return result;
}

BitMatrix BitMatrix::power(std::uint64_t k) const {
  BitMatrix result = identity(dim_);
  BitMatrix base = *this;
  while (k > 0) {
    if (k & 1) result *= base;
    k >>= 1;
    if (k > 0) base *= base;
  }
  return result;
}

BitMatrix::Stabilization BitMatrix::stabilize() const {
  // Floyd-free approach: the power sequence of a boolean matrix over a
  // finite monoid enters a cycle; enumerate powers with a hash map from
  // matrix to first exponent. Dimension is small so this is cheap.
  std::unordered_map<BitMatrix, std::uint64_t, BitMatrixHash> seen;
  BitMatrix current = *this;
  std::uint64_t exponent = 1;
  while (true) {
    auto [it, inserted] = seen.emplace(current, exponent);
    if (!inserted) {
      Stabilization s;
      s.first = it->second;
      s.period = exponent - it->second;
      s.stable_power = power(s.first);
      return s;
    }
    current *= *this;
    ++exponent;
  }
}

bool BitMatrix::any_heap() const {
  return std::any_of(heap_, heap_ + num_words(), [](std::uint64_t w) { return w != 0; });
}

bool BitMatrix::any_diagonal() const {
  if (is_inline()) return (word_ & kDiagonal) != 0;
  for (std::size_t i = 0; i < dim_; ++i)
    if (get(i, i)) return true;
  return false;
}

std::size_t BitMatrix::count_heap() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_words(); ++i) {
    total += static_cast<std::size_t>(std::popcount(heap_[i]));
  }
  return total;
}

bool BitMatrix::equal_heap(const BitMatrix& other) const {
  return std::equal(heap_, heap_ + num_words(), other.heap_);
}

std::string BitMatrix::to_string() const {
  std::string out;
  out.reserve(dim_ * (dim_ + 1));
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) out.push_back(get(i, j) ? '1' : '.');
    out.push_back('\n');
  }
  return out;
}

std::size_t BitMatrix::hash_heap() const {
  std::size_t h = hash_mix(0x1234, dim_);
  for (std::size_t i = 0; i < num_words(); ++i) {
    h = hash_mix(h, static_cast<std::size_t>(heap_[i]));
  }
  return h;
}

void BitVector::allocate_heap() { heap_ = new std::uint64_t[num_words()](); }

void BitVector::copy_heap(const BitVector& other) {
  heap_ = new std::uint64_t[num_words()];
  std::copy_n(other.heap_, num_words(), heap_);
}

BitVector& BitVector::assign_heap(const BitVector& other) {
  if (this == &other) return *this;
  if (other.is_inline()) {
    release();
    dim_ = other.dim_;
    word_ = other.word_;
  } else if (dim_ == other.dim_) {
    std::copy_n(other.heap_, num_words(), heap_);  // same shape: reuse storage
  } else {
    *this = BitVector(other);
  }
  return *this;
}

BitVector BitVector::unit(std::size_t dim, std::size_t index) {
  BitVector v(dim);
  v.set(index, true);
  return v;
}

BitVector BitVector::ones(std::size_t dim) {
  BitVector v(dim);
  if (v.is_inline()) {
    v.word_ = dim == kInlineBits ? ~std::uint64_t{0} : (std::uint64_t{1} << dim) - 1;
  } else {
    for (std::size_t i = 0; i < dim; ++i) v.set(i, true);
  }
  return v;
}

bool BitVector::any_heap() const {
  return std::any_of(heap_, heap_ + num_words(), [](std::uint64_t w) { return w != 0; });
}

std::size_t BitVector::count_heap() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < num_words(); ++w) {
    total += static_cast<std::size_t>(std::popcount(heap_[w]));
  }
  return total;
}

void BitVector::multiply_heap(const BitMatrix& m, BitVector& out) const {
  if (is_inline()) {  // 8 < dim <= 64: one-word rows of a heap matrix
    std::uint64_t acc = 0;
    for (std::uint64_t bits = word_; bits != 0; bits &= bits - 1) {
      acc |= m.heap_row(static_cast<std::size_t>(std::countr_zero(bits)))[0];
    }
    out.word_ = acc;
    return;
  }
  const std::size_t n = num_words();
  std::fill_n(out.heap_, n, 0);
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t bits = heap_[w];
    while (bits != 0) {
      const std::size_t i = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::uint64_t* row = m.heap_row(i);
      for (std::size_t ww = 0; ww < n; ++ww) out.heap_[ww] |= row[ww];
    }
  }
}

bool BitVector::intersects_heap(const BitVector& other) const {
  for (std::size_t w = 0; w < num_words(); ++w)
    if ((heap_[w] & other.heap_[w]) != 0) return true;
  return false;
}

bool BitVector::subset_of_heap(const BitVector& other) const {
  for (std::size_t w = 0; w < num_words(); ++w)
    if ((heap_[w] & ~other.heap_[w]) != 0) return false;
  return true;
}

std::size_t BitVector::next_set_heap(std::size_t from) const {
  for (std::size_t w = from / kWordBits; w < num_words(); ++w) {
    std::uint64_t bits = heap_[w];
    if (w == from / kWordBits) bits &= ~std::uint64_t{0} << (from % kWordBits);
    if (bits != 0) return w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
  }
  return dim_;
}

BitVector& BitVector::or_heap(const BitVector& other) {
  for (std::size_t w = 0; w < num_words(); ++w) heap_[w] |= other.heap_[w];
  return *this;
}

BitVector& BitVector::and_heap(const BitVector& other) {
  for (std::size_t w = 0; w < num_words(); ++w) heap_[w] &= other.heap_[w];
  return *this;
}

BitVector& BitVector::remove_heap(const BitVector& other) {
  for (std::size_t w = 0; w < num_words(); ++w) heap_[w] &= ~other.heap_[w];
  return *this;
}

void BitVector::clear_heap() { std::fill_n(heap_, num_words(), 0); }

bool BitVector::equal_heap(const BitVector& other) const {
  return std::equal(heap_, heap_ + num_words(), other.heap_);
}

std::size_t BitVector::hash_heap() const {
  std::size_t h = hash_mix(0x5678, dim_);
  for (std::size_t w = 0; w < num_words(); ++w) {
    h = hash_mix(h, static_cast<std::size_t>(heap_[w]));
  }
  return h;
}

std::string BitVector::to_string() const {
  std::string out;
  out.reserve(dim_);
  for (std::size_t i = 0; i < dim_; ++i) out.push_back(get(i) ? '1' : '.');
  return out;
}

}  // namespace lclpath
