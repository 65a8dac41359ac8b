#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/alphabet.hpp"
#include "core/bitmatrix.hpp"
#include "core/rng.hpp"

namespace lclpath {
namespace {

TEST(BitMatrix, IdentityIsMultiplicativeUnit) {
  for (std::size_t dim : {1u, 3u, 7u, 64u, 65u, 130u}) {
    Rng rng(dim);
    BitMatrix m(dim);
    for (int k = 0; k < 50; ++k) {
      m.set(rng.next_below(dim), rng.next_below(dim), true);
    }
    const BitMatrix id = BitMatrix::identity(dim);
    EXPECT_EQ(m * id, m) << "dim " << dim;
    EXPECT_EQ(id * m, m) << "dim " << dim;
  }
}

TEST(BitMatrix, MultiplicationMatchesNaive) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.next_below(70);
    BitMatrix a(dim), b(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        a.set(i, j, rng.next_bool());
        b.set(i, j, rng.next_bool());
      }
    }
    const BitMatrix fast = a * b;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        bool expect = false;
        for (std::size_t k = 0; k < dim && !expect; ++k) {
          expect = a.get(i, k) && b.get(k, j);
        }
        ASSERT_EQ(fast.get(i, j), expect) << i << "," << j << " dim=" << dim;
      }
    }
  }
}

TEST(BitMatrix, MultiplicationAssociative) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dim = 1 + rng.next_below(40);
    BitMatrix m[3] = {BitMatrix(dim), BitMatrix(dim), BitMatrix(dim)};
    for (auto& mat : m) {
      for (int k = 0; k < static_cast<int>(dim * 2); ++k) {
        mat.set(rng.next_below(dim), rng.next_below(dim), true);
      }
    }
    EXPECT_EQ((m[0] * m[1]) * m[2], m[0] * (m[1] * m[2]));
  }
}

TEST(BitMatrix, PowerMatchesRepeatedMultiplication) {
  Rng rng(9);
  const std::size_t dim = 9;
  BitMatrix m(dim);
  for (int k = 0; k < 14; ++k) m.set(rng.next_below(dim), rng.next_below(dim), true);
  BitMatrix acc = BitMatrix::identity(dim);
  for (std::uint64_t e = 0; e <= 12; ++e) {
    EXPECT_EQ(m.power(e), acc) << "exponent " << e;
    acc *= m;
  }
}

TEST(BitMatrix, StabilizeFindsPowerCycle) {
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t dim = 2 + rng.next_below(8);
    BitMatrix m(dim);
    for (int k = 0; k < static_cast<int>(dim + 3); ++k) {
      m.set(rng.next_below(dim), rng.next_below(dim), true);
    }
    const auto stab = m.stabilize();
    EXPECT_GE(stab.period, 1u);
    EXPECT_EQ(m.power(stab.first), m.power(stab.first + stab.period));
    EXPECT_EQ(stab.stable_power, m.power(stab.first));
  }
}

TEST(BitMatrix, TransposeInvolution) {
  Rng rng(5);
  const std::size_t dim = 67;
  BitMatrix m(dim);
  for (int k = 0; k < 200; ++k) m.set(rng.next_below(dim), rng.next_below(dim), true);
  EXPECT_EQ(m.transposed().transposed(), m);
  EXPECT_TRUE(m.transposed().get(3, 5) == m.get(5, 3));
}

TEST(BitVector, VectorMatrixMatchesNaive) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.next_below(80);
    BitMatrix m(dim);
    BitVector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v.set(i, rng.next_bool());
      for (std::size_t j = 0; j < dim; ++j) m.set(i, j, rng.next_bool(1, 3));
    }
    const BitVector fast = v.multiplied(m);
    for (std::size_t j = 0; j < dim; ++j) {
      bool expect = false;
      for (std::size_t i = 0; i < dim && !expect; ++i) expect = v.get(i) && m.get(i, j);
      ASSERT_EQ(fast.get(j), expect);
    }
  }
}

TEST(BitVector, IntersectsAndCounts) {
  BitVector a(130), b(130);
  a.set(0, true);
  a.set(129, true);
  b.set(64, true);
  EXPECT_FALSE(a.intersects(b));
  b.set(129, true);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
}

TEST(BitVector, MultiplyIntoMatchesMultiplied) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.next_below(150);
    BitMatrix m(dim);
    BitVector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v.set(i, rng.next_bool());
      for (std::size_t j = 0; j < dim; ++j) m.set(i, j, rng.next_bool(1, 3));
    }
    BitVector out(dim);
    out.set(rng.next_below(dim), true);  // stale contents must be overwritten
    v.multiply_into(m, out);
    EXPECT_EQ(out, v.multiplied(m));
  }
}

TEST(BitVector, SubsetFirstSetAndInPlaceOps) {
  BitVector a(130), b(130);
  a.set(5, true);
  a.set(129, true);
  EXPECT_EQ(a.first_set(), 5u);
  EXPECT_EQ(BitVector(130).first_set(), 130u);
  b.set(5, true);
  EXPECT_TRUE(b.subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  b.set(64, true);
  EXPECT_FALSE(b.subset_of(a));

  BitVector c = a;
  c |= b;
  EXPECT_EQ(c, a | b);
  c &= b;
  EXPECT_EQ(c, (a | b) & b);
  c.remove(a);
  EXPECT_FALSE(c.get(5));
  EXPECT_TRUE(c.get(64));
  c.clear();
  EXPECT_FALSE(c.any());
  EXPECT_EQ(c.dim(), 130u);
}

// Vectors of dim <= 64 keep their bits in one inline word, wider ones on
// the heap; these dims sit on both sides of that boundary.
constexpr std::size_t kStorageBoundaryDims[] = {0, 1, 63, 64, 65, 128, 129};

/// Bits 0, stride, 2*stride, ... and the last bit.
BitVector striped(std::size_t dim, std::size_t stride) {
  BitVector v(dim);
  for (std::size_t i = 0; i < dim; i += stride) v.set(i, true);
  if (dim > 0) v.set(dim - 1, true);
  return v;
}

TEST(BitVector, StorageBoundaryBitOps) {
  for (const std::size_t dim : kStorageBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const BitVector zero(dim);
    EXPECT_EQ(zero.dim(), dim);
    EXPECT_FALSE(zero.any());
    EXPECT_EQ(zero.first_set(), dim);

    const BitVector all = BitVector::ones(dim);
    EXPECT_EQ(all.count(), dim);
    EXPECT_EQ(all.first_set(), 0u);
    EXPECT_EQ(all.any(), dim > 0);
    for (std::size_t i = 0; i < dim; ++i) ASSERT_TRUE(all.get(i)) << i;

    // Equal contents built in a different order: equal vectors, equal hashes.
    const BitVector stripes = striped(dim, 3);
    BitVector rebuilt(dim);
    for (std::size_t i = dim; i-- > 0;) rebuilt.set(i, stripes.get(i));
    EXPECT_EQ(rebuilt, stripes);
    EXPECT_EQ(rebuilt.hash(), stripes.hash());
    if (dim > 0) {
      rebuilt.set(dim - 1, false);
      EXPECT_NE(rebuilt, stripes);
      EXPECT_EQ(BitVector::unit(dim, dim - 1).first_set(), dim - 1);
    }

    // remove() clears exactly the other vector's bits, up to the last one.
    BitVector rest = all;
    rest.remove(stripes);
    EXPECT_EQ(rest.count(), dim - stripes.count());
    EXPECT_FALSE(rest.intersects(stripes));
    EXPECT_EQ(rest | stripes, all);
    EXPECT_EQ(rest & stripes, zero);
    if (dim > 1) {
      EXPECT_EQ(rest.first_set(), 1u);
    }
    rest.clear();
    EXPECT_EQ(rest, zero);
  }
  // The dimension is part of the value.
  EXPECT_NE(BitVector(64), BitVector(65));
  EXPECT_NE(BitVector(0), BitVector(1));
}

TEST(BitVector, CopyAndMoveAcrossStorageKinds) {
  for (const std::size_t from : kStorageBoundaryDims) {
    for (const std::size_t to : kStorageBoundaryDims) {
      SCOPED_TRACE("dim " + std::to_string(from) + " into dim " + std::to_string(to));
      const BitVector source = striped(from, 3);

      BitVector assigned = striped(to, 2);
      assigned = source;
      EXPECT_EQ(assigned, source);
      EXPECT_EQ(assigned.dim(), from);

      BitVector copy(source);
      BitVector moved_into = striped(to, 5);
      moved_into = std::move(copy);
      EXPECT_EQ(moved_into, source);
      const BitVector constructed(std::move(moved_into));
      EXPECT_EQ(constructed, source);
      // A moved-from vector can be assigned again.
      moved_into = striped(to, 2);
      EXPECT_EQ(moved_into, striped(to, 2));

      // Copies are independent of their source.
      if (from > 0) {
        assigned.set(0, false);
        EXPECT_TRUE(source.get(0));
      }
    }
  }
  for (const std::size_t dim : kStorageBoundaryDims) {
    BitVector v = striped(dim, 3);
    BitVector& alias = v;
    v = alias;
    EXPECT_EQ(v, striped(dim, 3));
    v = std::move(alias);
    EXPECT_EQ(v, striped(dim, 3));
  }
  // Reallocation moves a mix of inline and heap vectors.
  std::vector<BitVector> grown;
  for (std::size_t k = 0; k < 50; ++k) {
    grown.push_back(striped(kStorageBoundaryDims[k % 7], 1 + k));
  }
  for (std::size_t k = 0; k < 50; ++k) {
    EXPECT_EQ(grown[k], striped(kStorageBoundaryDims[k % 7], 1 + k));
  }
}

TEST(BitVector, NextSetWalksSetBitsInOrder) {
  for (const std::size_t dim : kStorageBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const BitVector v = striped(dim, 3);
    std::vector<std::size_t> walked;
    for (std::size_t i = v.first_set(); i < dim; i = v.next_set(i + 1)) walked.push_back(i);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < dim; ++i)
      if (v.get(i)) expect.push_back(i);
    EXPECT_EQ(walked, expect);
    EXPECT_EQ(v.next_set(dim), dim);
    EXPECT_EQ(BitVector(dim).next_set(0), dim);
  }
}

TEST(BitVector, MultiplyIntoMatchesNaiveAcrossStorageBoundary) {
  Rng rng(29);
  for (const std::size_t dim : kStorageBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    BitMatrix m(dim);
    BitVector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v.set(i, rng.next_bool());
      for (std::size_t j = 0; j < dim; ++j) m.set(i, j, rng.next_bool(1, 4));
    }
    BitVector out = BitVector::ones(dim);  // stale contents must be overwritten
    v.multiply_into(m, out);
    const BitVector product = v.multiplied(m);
    EXPECT_EQ(out, product);
    for (std::size_t j = 0; j < dim; ++j) {
      bool expect = false;
      for (std::size_t i = 0; i < dim && !expect; ++i) expect = v.get(i) && m.get(i, j);
      ASSERT_EQ(product.get(j), expect) << j;
    }
  }
}

// BitMatrix keeps dims <= 8 in one inline word and wider matrices on the
// heap; every operation is checked against a plain bool table on both
// sides of that boundary and of the 64-bit row-word boundary.
constexpr std::size_t kMatrixBoundaryDims[] = {1, 2, 7, 8, 9, 63, 64, 65};

using Table = std::vector<std::vector<bool>>;

Table random_table(Rng& rng, std::size_t dim, std::uint64_t num, std::uint64_t den) {
  Table t(dim, std::vector<bool>(dim, false));
  for (auto& row : t)
    for (std::size_t j = 0; j < dim; ++j) row[j] = rng.next_bool(num, den);
  return t;
}

BitMatrix from_table(const Table& t) {
  BitMatrix m(t.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    for (std::size_t j = 0; j < t.size(); ++j) m.set(i, j, t[i][j]);
  return m;
}

Table to_table(const BitMatrix& m) {
  Table t(m.dim(), std::vector<bool>(m.dim(), false));
  for (std::size_t i = 0; i < m.dim(); ++i)
    for (std::size_t j = 0; j < m.dim(); ++j) t[i][j] = m.get(i, j);
  return t;
}

Table naive_product(const Table& a, const Table& b) {
  const std::size_t n = a.size();
  Table out(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n && !out[i][j]; ++k) out[i][j] = a[i][k] && b[k][j];
  return out;
}

Table naive_identity(std::size_t n) {
  Table t(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) t[i][i] = true;
  return t;
}

TEST(BitMatrix, StorageBoundaryGetSetAndShapes) {
  Rng rng(101);
  for (const std::size_t dim : kMatrixBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const BitMatrix zero = BitMatrix::zero(dim);
    EXPECT_EQ(zero.dim(), dim);
    EXPECT_EQ(zero, BitMatrix(dim));
    EXPECT_FALSE(zero.any());
    EXPECT_FALSE(zero.any_diagonal());
    EXPECT_EQ(zero.count(), 0u);
    EXPECT_EQ(to_table(BitMatrix::identity(dim)), naive_identity(dim));
    EXPECT_TRUE(BitMatrix::identity(dim).any_diagonal());
    EXPECT_EQ(BitMatrix::identity(dim).count(), dim);
    EXPECT_EQ(to_table(BitMatrix::ones(dim)), Table(dim, std::vector<bool>(dim, true)));
    EXPECT_EQ(BitMatrix::ones(dim).count(), dim * dim);

    Table t = random_table(rng, dim, 1, 3);
    BitMatrix m = from_table(t);
    EXPECT_EQ(to_table(m), t);
    std::size_t expect_count = 0;
    bool expect_diagonal = false;
    std::string expect_text;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        expect_count += t[i][j] ? 1 : 0;
        expect_text.push_back(t[i][j] ? '1' : '.');
      }
      expect_diagonal = expect_diagonal || t[i][i];
      expect_text.push_back('\n');
    }
    EXPECT_EQ(m.count(), expect_count);
    EXPECT_EQ(m.any(), expect_count > 0);
    EXPECT_EQ(m.any_diagonal(), expect_diagonal);
    EXPECT_EQ(m.to_string(), expect_text);

    // Single-entry matrices: the corners, and clearing them again.
    const std::size_t last = dim - 1;
    for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>(0, last),
                               std::pair<std::size_t, std::size_t>(last, 0),
                               std::pair<std::size_t, std::size_t>(last, last)}) {
      BitMatrix single(dim);
      single.set(i, j, true);
      EXPECT_TRUE(single.get(i, j));
      EXPECT_EQ(single.count(), 1u);
      EXPECT_EQ(single.any_diagonal(), i == j);
      single.set(i, j, false);
      EXPECT_EQ(single, zero);
    }
  }
}

TEST(BitMatrix, StorageBoundaryProducts) {
  Rng rng(103);
  for (const std::size_t dim : kMatrixBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    BitMatrix out = BitMatrix::ones(dim);  // stale contents must be overwritten
    for (int trial = 0; trial < 3; ++trial) {
      const Table ta = random_table(rng, dim, 1, 4);
      const Table tb = random_table(rng, dim, 1, 4);
      const BitMatrix a = from_table(ta);
      const BitMatrix b = from_table(tb);
      const Table expect = naive_product(ta, tb);

      EXPECT_EQ(to_table(a * b), expect);
      a.multiply_into(b, out);  // reuses `out` across trials
      EXPECT_EQ(to_table(out), expect);
      BitMatrix in_place = a;
      in_place *= b;
      EXPECT_EQ(to_table(in_place), expect);

      Table either = ta, both = ta, flipped = ta;
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          either[i][j] = ta[i][j] || tb[i][j];
          both[i][j] = ta[i][j] && tb[i][j];
          flipped[i][j] = ta[j][i];
        }
      }
      EXPECT_EQ(to_table(a | b), either);
      EXPECT_EQ(to_table(a & b), both);
      EXPECT_EQ(to_table(a.transposed()), flipped);
      EXPECT_EQ(a.transposed().transposed(), a);
    }
  }
}

TEST(BitMatrix, StorageBoundaryPowersAndStabilization) {
  Rng rng(107);
  for (const std::size_t dim : kMatrixBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const Table t = random_table(rng, dim, 1, 3);
    const BitMatrix m = from_table(t);
    // Naive powers M^0 .. M^12, then on until the sequence repeats.
    std::vector<Table> powers{naive_identity(dim)};
    for (std::uint64_t k = 1; k <= 12; ++k) powers.push_back(naive_product(powers.back(), t));
    for (std::uint64_t k = 0; k <= 12; ++k) {
      EXPECT_EQ(to_table(m.power(k)), powers[k]) << "k=" << k;
    }
    std::uint64_t first = 0;
    std::uint64_t period = 0;
    for (std::uint64_t k = 1; period == 0; ++k) {
      if (k >= powers.size()) powers.push_back(naive_product(powers.back(), t));
      for (std::uint64_t j = 1; j < k; ++j) {
        if (powers[j] == powers[k]) {
          first = j;
          period = k - j;
          break;
        }
      }
    }
    const BitMatrix::Stabilization s = m.stabilize();
    EXPECT_EQ(s.first, first);
    EXPECT_EQ(s.period, period);
    EXPECT_EQ(to_table(s.stable_power), powers[first]);
  }
}

TEST(BitMatrix, StorageBoundaryEqualityAndHash) {
  Rng rng(109);
  for (const std::size_t dim : kMatrixBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const Table t = random_table(rng, dim, 1, 2);
    const BitMatrix forward = from_table(t);
    // The same entries set in the opposite order, over a cleared matrix.
    BitMatrix backward = BitMatrix::ones(dim);
    for (std::size_t i = dim; i-- > 0;)
      for (std::size_t j = dim; j-- > 0;) backward.set(i, j, t[i][j]);
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward.hash(), backward.hash());
    backward.set(dim - 1, 0, !t[dim - 1][0]);
    EXPECT_NE(forward, backward);
  }
  EXPECT_NE(BitMatrix(8), BitMatrix(9));
  EXPECT_NE(BitMatrix(0), BitMatrix(1));
  EXPECT_NE(BitMatrix::identity(8), BitMatrix::identity(9));
  EXPECT_NE(BitMatrix::ones(7), BitMatrix::ones(8));
}

TEST(BitMatrix, StorageBoundaryCopyMoveAssign) {
  std::vector<std::size_t> dims{0};
  dims.insert(dims.end(), std::begin(kMatrixBoundaryDims), std::end(kMatrixBoundaryDims));
  auto diagonal_band = [](std::size_t dim, std::size_t offset) {
    BitMatrix m(dim);
    for (std::size_t i = 0; i < dim; ++i) m.set(i, (i + offset) % dim, true);
    return m;
  };
  for (const std::size_t from : dims) {
    for (const std::size_t to : dims) {
      SCOPED_TRACE("dim " + std::to_string(from) + " into dim " + std::to_string(to));
      const BitMatrix source = diagonal_band(from, 1);

      BitMatrix assigned = diagonal_band(to, 2);
      assigned = source;
      EXPECT_EQ(assigned, source);

      EXPECT_EQ(assigned.dim(), from);

      BitMatrix copy(source);
      BitMatrix moved_into = diagonal_band(to, 3);
      moved_into = std::move(copy);
      EXPECT_EQ(moved_into, source);
      EXPECT_EQ(copy.dim(), 0u);  // a moved-from matrix is the empty matrix
      const BitMatrix constructed(std::move(moved_into));
      EXPECT_EQ(constructed, source);
      EXPECT_EQ(moved_into.dim(), 0u);
      // A moved-from matrix can be assigned again.
      moved_into = diagonal_band(to, 2);
      EXPECT_EQ(moved_into, diagonal_band(to, 2));

      // Copies are independent of their source.
      if (from > 0) {
        assigned.set(0, 1 % from, false);
        EXPECT_TRUE(source.get(0, 1 % from));
      }
    }
  }
  for (const std::size_t dim : dims) {
    BitMatrix m = diagonal_band(dim, 1);
    BitMatrix& alias = m;
    m = alias;
    EXPECT_EQ(m, diagonal_band(dim, 1));
    m = std::move(alias);
    EXPECT_EQ(m, diagonal_band(dim, 1));
  }
  // Growth moves elements of both kinds.
  std::vector<BitMatrix> grown;
  for (std::size_t k = 0; k < 50; ++k) {
    grown.push_back(diagonal_band(dims[k % dims.size()], k));
  }
  for (std::size_t k = 0; k < 50; ++k) {
    EXPECT_EQ(grown[k], diagonal_band(dims[k % dims.size()], k));
  }
}

TEST(BitMatrix, StorageBoundaryVectorProduct) {
  Rng rng(113);
  for (const std::size_t dim : kMatrixBoundaryDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const Table t = random_table(rng, dim, 1, 4);
    const BitMatrix m = from_table(t);
    BitVector out = BitVector::ones(dim);  // stale contents must be overwritten
    for (int trial = 0; trial < 4; ++trial) {
      BitVector v(dim);
      for (std::size_t i = 0; i < dim; ++i) v.set(i, rng.next_bool());
      v.multiply_into(m, out);
      EXPECT_EQ(out, v.multiplied(m));
      for (std::size_t j = 0; j < dim; ++j) {
        bool expect = false;
        for (std::size_t i = 0; i < dim && !expect; ++i) expect = v.get(i) && t[i][j];
        ASSERT_EQ(out.get(j), expect) << j;
      }
    }
  }
}

TEST(Alphabet, AddFindRoundTrip) {
  Alphabet a({"x", "y"});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at("x"), 0u);
  EXPECT_EQ(a.at("y"), 1u);
  EXPECT_EQ(a.name(1), "y");
  EXPECT_FALSE(a.find("z").has_value());
  EXPECT_THROW(a.at("z"), std::out_of_range);
  EXPECT_THROW(a.add("x"), std::invalid_argument);
  EXPECT_EQ(a.add_or_get("z"), 2u);
  EXPECT_EQ(a.add_or_get("z"), 2u);
}

TEST(Words, EnumerationCountsAndOrder) {
  std::size_t count = 0;
  Word previous;
  for_each_word(3, 4, [&](const Word& w) {
    if (count > 0) {
      EXPECT_LT(previous, w);
    }
    previous = w;
    ++count;
  });
  EXPECT_EQ(count, 81u);
}

TEST(Words, ReverseRepeatConcat) {
  const Word w{0, 1, 2};
  EXPECT_EQ(reversed(w), (Word{2, 1, 0}));
  EXPECT_EQ(repeated(w, 2), (Word{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(concat(w, {3}), (Word{0, 1, 2, 3}));
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(123), b(123);
  for (int k = 0; k < 100; ++k) {
    const std::uint64_t bound = 1 + (static_cast<std::uint64_t>(k) * 37) % 1000;
    const auto x = a.next_below(bound);
    EXPECT_EQ(x, b.next_below(bound));
    EXPECT_LT(x, bound);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(77);
  const auto perm = rng.permutation(100);
  std::unordered_set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
}

}  // namespace
}  // namespace lclpath
