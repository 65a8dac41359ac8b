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

TEST(Words, PrimitiveDetection) {
  EXPECT_TRUE(is_primitive({0}));
  EXPECT_TRUE(is_primitive({0, 1}));
  EXPECT_FALSE(is_primitive({0, 0}));
  EXPECT_FALSE(is_primitive({0, 1, 0, 1}));
  EXPECT_TRUE(is_primitive({0, 1, 0}));
  EXPECT_TRUE(is_primitive({0, 0, 1}));
  EXPECT_FALSE(is_primitive({1, 1, 1}));
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
