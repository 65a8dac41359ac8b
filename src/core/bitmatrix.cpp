#include "core/bitmatrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace lclpath {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t dim) { return (dim + kWordBits - 1) / kWordBits; }
}  // namespace

BitMatrix::BitMatrix(std::size_t dim)
    : dim_(dim), words_per_row_(words_for(dim)), words_(dim * words_per_row_, 0) {}

BitMatrix BitMatrix::identity(std::size_t dim) {
  BitMatrix m(dim);
  for (std::size_t i = 0; i < dim; ++i) m.set(i, i, true);
  return m;
}

BitMatrix BitMatrix::zero(std::size_t dim) { return BitMatrix(dim); }

BitMatrix BitMatrix::ones(std::size_t dim) {
  BitMatrix m(dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) m.set(i, j, true);
  return m;
}

bool BitMatrix::get(std::size_t row, std::size_t col) const {
  assert(row < dim_ && col < dim_);
  return (words_[row * words_per_row_ + col / kWordBits] >> (col % kWordBits)) & 1u;
}

void BitMatrix::set(std::size_t row, std::size_t col, bool value) {
  assert(row < dim_ && col < dim_);
  std::uint64_t& w = words_[row * words_per_row_ + col / kWordBits];
  const std::uint64_t bit = std::uint64_t{1} << (col % kWordBits);
  if (value) {
    w |= bit;
  } else {
    w &= ~bit;
  }
}

BitMatrix BitMatrix::operator*(const BitMatrix& other) const {
  assert(dim_ == other.dim_);
  BitMatrix result(dim_);
  // Row-by-row: for every set bit k in row i of *this, OR in row k of other.
  for (std::size_t i = 0; i < dim_; ++i) {
    std::uint64_t* out = &result.words_[i * words_per_row_];
    const std::uint64_t* row = &words_[i * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const std::size_t k = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t* other_row = &other.words_[k * words_per_row_];
        for (std::size_t ww = 0; ww < words_per_row_; ++ww) out[ww] |= other_row[ww];
      }
    }
  }
  return result;
}

BitMatrix& BitMatrix::operator*=(const BitMatrix& other) {
  *this = *this * other;
  return *this;
}

void BitMatrix::multiply_into(const BitMatrix& other, BitMatrix& out) const {
  assert(dim_ == other.dim_ && out.dim_ == dim_);
  assert(&out != this && &out != &other);  // out is cleared before reads
  for (std::uint64_t& w : out.words_) w = 0;
  for (std::size_t i = 0; i < dim_; ++i) {
    std::uint64_t* dst = &out.words_[i * words_per_row_];
    const std::uint64_t* row = &words_[i * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const std::size_t k = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t* other_row = &other.words_[k * words_per_row_];
        for (std::size_t ww = 0; ww < words_per_row_; ++ww) dst[ww] |= other_row[ww];
      }
    }
  }
}

BitMatrix BitMatrix::operator|(const BitMatrix& other) const {
  assert(dim_ == other.dim_);
  BitMatrix result = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) result.words_[i] |= other.words_[i];
  return result;
}

BitMatrix BitMatrix::operator&(const BitMatrix& other) const {
  assert(dim_ == other.dim_);
  BitMatrix result = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) result.words_[i] &= other.words_[i];
  return result;
}

BitMatrix BitMatrix::transposed() const {
  BitMatrix result(dim_);
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
    base *= base;
    k >>= 1;
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

bool BitMatrix::any() const {
  for (std::uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

bool BitMatrix::any_diagonal() const {
  for (std::size_t i = 0; i < dim_; ++i)
    if (get(i, i)) return true;
  return false;
}

std::size_t BitMatrix::count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

const std::uint64_t* BitMatrix::row_words(std::size_t row) const {
  assert(row < dim_);
  return &words_[row * words_per_row_];
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

std::size_t BitMatrix::hash() const {
  std::size_t h = hash_mix(0x1234, dim_);
  for (std::uint64_t w : words_) h = hash_mix(h, static_cast<std::size_t>(w));
  return h;
}

BitVector::BitVector(std::size_t dim) : dim_(dim) {
  if (!is_inline()) heap_ = new std::uint64_t[num_words()]();
}

BitVector::BitVector(const BitVector& other) : dim_(other.dim_) {
  if (is_inline()) {
    word_ = other.word_;
  } else {
    heap_ = new std::uint64_t[num_words()];
    std::copy_n(other.heap_, num_words(), heap_);
  }
}

BitVector& BitVector::operator=(const BitVector& other) {
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
  for (std::size_t i = 0; i < dim; ++i) v.set(i, true);
  return v;
}

bool BitVector::get(std::size_t index) const {
  assert(index < dim_);
  return (words()[index / kWordBits] >> (index % kWordBits)) & 1u;
}

void BitVector::set(std::size_t index, bool value) {
  assert(index < dim_);
  std::uint64_t& w = words()[index / kWordBits];
  const std::uint64_t bit = std::uint64_t{1} << (index % kWordBits);
  if (value) {
    w |= bit;
  } else {
    w &= ~bit;
  }
}

bool BitVector::any() const {
  const std::uint64_t* a = words();
  for (std::size_t w = 0; w < num_words(); ++w)
    if (a[w] != 0) return true;
  return false;
}

std::size_t BitVector::count() const {
  const std::uint64_t* a = words();
  std::size_t total = 0;
  for (std::size_t w = 0; w < num_words(); ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w]));
  }
  return total;
}

BitVector BitVector::multiplied(const BitMatrix& m) const {
  BitVector result(dim_);
  multiply_into(m, result);
  return result;
}

void BitVector::multiply_into(const BitMatrix& m, BitVector& out) const {
  assert(dim_ == m.dim() && out.dim_ == dim_);
  assert(&out != this);  // out is cleared before this is read
  if (is_inline()) {
    std::uint64_t acc = 0;
    for (std::uint64_t bits = word_; bits != 0; bits &= bits - 1) {
      acc |= m.row_words(static_cast<std::size_t>(std::countr_zero(bits)))[0];
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
      const std::uint64_t* row = m.row_words(i);
      for (std::size_t ww = 0; ww < n; ++ww) out.heap_[ww] |= row[ww];
    }
  }
}

bool BitVector::intersects(const BitVector& other) const {
  assert(dim_ == other.dim_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t w = 0; w < num_words(); ++w)
    if ((a[w] & b[w]) != 0) return true;
  return false;
}

bool BitVector::subset_of(const BitVector& other) const {
  assert(dim_ == other.dim_);
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t w = 0; w < num_words(); ++w)
    if ((a[w] & ~b[w]) != 0) return false;
  return true;
}

std::size_t BitVector::first_set() const {
  const std::uint64_t* a = words();
  for (std::size_t w = 0; w < num_words(); ++w) {
    if (a[w] != 0) return w * kWordBits + static_cast<std::size_t>(std::countr_zero(a[w]));
  }
  return dim_;
}

BitVector BitVector::operator|(const BitVector& other) const {
  BitVector result = *this;
  result |= other;
  return result;
}

BitVector BitVector::operator&(const BitVector& other) const {
  BitVector result = *this;
  result &= other;
  return result;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  assert(dim_ == other.dim_);
  std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t w = 0; w < num_words(); ++w) a[w] |= b[w];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  assert(dim_ == other.dim_);
  std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t w = 0; w < num_words(); ++w) a[w] &= b[w];
  return *this;
}

BitVector& BitVector::remove(const BitVector& other) {
  assert(dim_ == other.dim_);
  std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t w = 0; w < num_words(); ++w) a[w] &= ~b[w];
  return *this;
}

void BitVector::clear() { std::fill_n(words(), num_words(), 0); }

bool BitVector::operator==(const BitVector& other) const {
  return dim_ == other.dim_ && std::equal(words(), words() + num_words(), other.words());
}

std::size_t BitVector::hash() const {
  const std::uint64_t* a = words();
  std::size_t h = hash_mix(0x5678, dim_);
  for (std::size_t w = 0; w < num_words(); ++w) {
    h = hash_mix(h, static_cast<std::size_t>(a[w]));
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
