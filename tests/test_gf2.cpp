// Unit and property tests for the GF(2) linear algebra substrate.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/linear_synthesis.hpp"
#include "gf2/matrix.hpp"
#include "gf2/wordops.hpp"

namespace femto::gf2 {
namespace {

TEST(BitVec, SetGetFlip) {
  BitVec v(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_FALSE(v.any());
  v.set(0, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(35));
  EXPECT_EQ(v.popcount(), 2u);
  v.flip(69);
  EXPECT_FALSE(v.get(69));
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVec, XorAndDot) {
  const BitVec a = BitVec::from_string("1101");
  const BitVec b = BitVec::from_string("1011");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((a & b).to_string(), "1001");
  EXPECT_EQ((a | b).to_string(), "1111");
  // <a,b> = 1*1 + 1*0 + 0*1 + 1*1 = 0 mod 2
  EXPECT_FALSE(a.dot(b));
  const BitVec c = BitVec::from_string("1000");
  EXPECT_TRUE(a.dot(c));
}

// Property test for the tail invariant documented in bitvec.hpp: every bit
// at position >= size() in the final storage word stays zero through every
// mutating operation. The word-reading reductions (popcount, parity, dot,
// the kernels in wordops.hpp, hash_value) depend on this to scan whole words
// without masking the tail, and each (like the word-parallel mutators) is
// checked here against a bit-by-bit recount.
TEST(BitVec, TailPaddingInvariant) {
  Rng rng(20230807);
  const auto padding_clear = [](const BitVec& v) {
    if (v.size() % 64 == 0) return true;  // no padding bits exist
    const std::uint64_t tail = v.word_data()[v.word_count() - 1];
    return (tail >> (v.size() % 64)) == 0;
  };
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 129u, 255u, 257u}) {
    BitVec a(n), b(n), c(n), d(n);
    ASSERT_TRUE(padding_clear(a)) << "fresh n=" << n;
    for (int step = 0; step < 200; ++step) {
      const std::size_t i = rng.index(n);
      const BitVec before = a;
      const std::size_t op = rng.index(6);
      switch (op) {
        case 0: a.set(i, rng.bernoulli(0.5)); break;
        case 1: a.flip(i); break;
        case 2: a.set_u(i, rng.bernoulli(0.5)); break;
        case 3: a ^= b; break;
        case 4: a |= b; break;
        case 5: a &= b; break;
      }
      if (op >= 3) {
        for (std::size_t k = 0; k < n; ++k) {
          const bool x = before.get(k), y = b.get(k);
          const bool want = op == 3 ? x != y : op == 4 ? x || y : x && y;
          ASSERT_EQ(a.get(k), want) << "op " << op << " n=" << n << " k=" << k;
        }
      }
      b.flip_u(rng.index(n));
      c.flip(rng.index(n));
      d.set(rng.index(n), rng.bernoulli(0.5));
      ASSERT_TRUE(padding_clear(a)) << "n=" << n << " step=" << step;
      ASSERT_TRUE(padding_clear(b)) << "n=" << n << " step=" << step;
      // The invariant is exactly what lets the word-reducers skip masking:
      // a bit-by-bit recount must agree with the whole-word kernels. The
      // support counts read (a, b) and (c, d) as the symplectic (x, z)
      // pairs of two Pauli strings.
      std::size_t pop = 0, and_pop = 0, or_pop = 0;
      wordops::SupportCounts ref;
      for (std::size_t k = 0; k < n; ++k) {
        const bool x1 = a.get(k), z1 = b.get(k), x2 = c.get(k), z2 = d.get(k);
        pop += x1 ? 1 : 0;
        and_pop += x1 && z1 ? 1 : 0;
        or_pop += x1 || z1 ? 1 : 0;
        if ((x1 || z1) && (x2 || z2)) {
          ++ref.common;
          if (x1 == x2 && z1 == z2) ++ref.equal;
          if (x1 && x2 && z1 != z2) ref.has_xy = true;  // an X against a Y
        }
      }
      ASSERT_EQ(a.popcount(), pop);
      ASSERT_EQ(a.parity(), (pop & 1) != 0);
      ASSERT_EQ(a.dot(b), (and_pop & 1) != 0);
      const std::size_t nw = a.word_count();
      ASSERT_EQ(wordops::and_popcount(a.word_data(), b.word_data(), nw),
                and_pop);
      ASSERT_EQ(wordops::or_popcount(a.word_data(), b.word_data(), nw),
                or_pop);
      const wordops::SupportCounts sc = wordops::support_counts(
          a.word_data(), b.word_data(), c.word_data(), d.word_data(), nw);
      ASSERT_EQ(sc.common, ref.common) << "n=" << n << " step=" << step;
      ASSERT_EQ(sc.equal, ref.equal) << "n=" << n << " step=" << step;
      ASSERT_EQ(sc.has_xy, ref.has_xy) << "n=" << n << " step=" << step;
    }
  }
}

TEST(BitVec, LowestSet) {
  BitVec v(130);
  EXPECT_EQ(v.lowest_set(), 130u);
  v.set(127, true);
  EXPECT_EQ(v.lowest_set(), 127u);
  v.set(3, true);
  EXPECT_EQ(v.lowest_set(), 3u);
}

TEST(Matrix, IdentityAndApply) {
  const Matrix id = Matrix::identity(5);
  const BitVec x = BitVec::from_string("10110");
  EXPECT_EQ(id.apply(x), x);
  EXPECT_TRUE(id.invertible());
  EXPECT_EQ(id.rank(), 5u);
}

TEST(Matrix, KnownInverse) {
  // [[1,1],[0,1]] is its own inverse over GF(2).
  const Matrix m = Matrix::from_rows({"11", "01"});
  const auto inv = m.inverse();
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(*inv, m);
}

TEST(Matrix, SingularHasNoInverse) {
  const Matrix m = Matrix::from_rows({"11", "11"});
  EXPECT_FALSE(m.invertible());
  EXPECT_FALSE(m.inverse().has_value());
  EXPECT_EQ(m.rank(), 1u);
}

TEST(Matrix, PermutationMatrix) {
  const Matrix p = Matrix::permutation({2, 0, 1});
  BitVec e0(3);
  e0.set(0, true);
  const BitVec y = p.apply(e0);
  EXPECT_TRUE(y.get(2));
  EXPECT_EQ(y.popcount(), 1u);
}

TEST(Matrix, BlockDiagonalAssembly) {
  // 2x2 block [[1,1],[0,1]] on indices {1,3}, identity elsewhere.
  const Matrix block = Matrix::from_rows({"11", "01"});
  const Matrix m = Matrix::block_diagonal(4, {{1, 3}}, {block});
  EXPECT_TRUE(m.invertible());
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_TRUE(m.get(2, 2));
  EXPECT_TRUE(m.get(1, 1));
  EXPECT_TRUE(m.get(1, 3));
  EXPECT_FALSE(m.get(3, 1));
  EXPECT_TRUE(m.get(3, 3));
}

class MatrixProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixProperty, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(17 + n);
  for (int rep = 0; rep < 20; ++rep) {
    const Matrix m = Matrix::random_invertible(n, rng);
    const auto inv = m.inverse();
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(m.multiply(*inv), Matrix::identity(n));
    EXPECT_EQ(inv->multiply(m), Matrix::identity(n));
  }
}

TEST_P(MatrixProperty, TransposeInvolutionAndProductRule) {
  const std::size_t n = GetParam();
  Rng rng(23 + n);
  const Matrix a = Matrix::random_invertible(n, rng);
  const Matrix b = Matrix::random_invertible(n, rng);
  EXPECT_EQ(a.transpose().transpose(), a);
  // (AB)^T = B^T A^T
  EXPECT_EQ(a.multiply(b).transpose(), b.transpose().multiply(a.transpose()));
}

TEST_P(MatrixProperty, RowOpPreservesInvertibility) {
  const std::size_t n = GetParam();
  if (n < 2) return;
  Rng rng(31 + n);
  Matrix m = Matrix::random_invertible(n, rng);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t src = rng.index(n);
    std::size_t dst = rng.index(n);
    if (src == dst) dst = (dst + 1) % n;
    m.add_row(src, dst);
    EXPECT_TRUE(m.invertible());
  }
}

TEST_P(MatrixProperty, UpperTriangularAlwaysInvertible) {
  const std::size_t n = GetParam();
  Rng rng(41 + n);
  for (int rep = 0; rep < 10; ++rep)
    EXPECT_TRUE(Matrix::random_upper_triangular(n, rng).invertible());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 24));

class SynthesisProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SynthesisProperty, PmhRecomposesMatrix) {
  const std::size_t n = GetParam();
  Rng rng(57 + n);
  for (int rep = 0; rep < 15; ++rep) {
    const Matrix m = Matrix::random_invertible(n, rng);
    const auto gates = synthesize_pmh(m);
    EXPECT_EQ(network_matrix(n, gates), m);
  }
}

TEST_P(SynthesisProperty, GaussRecomposesMatrix) {
  const std::size_t n = GetParam();
  Rng rng(61 + n);
  const Matrix m = Matrix::random_invertible(n, rng);
  EXPECT_EQ(network_matrix(n, synthesize_gauss(m)), m);
}

TEST_P(SynthesisProperty, IdentityNeedsNoGates) {
  const std::size_t n = GetParam();
  EXPECT_TRUE(synthesize_pmh(Matrix::identity(n)).empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SynthesisProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 9, 14, 16, 20));

TEST(Synthesis, SingleCnotMatrix) {
  // x1 += x0 corresponds to the elementary matrix with m[1][0] = 1.
  Matrix m = Matrix::identity(2);
  m.set(1, 0, true);
  const auto gates = synthesize_pmh(m);
  ASSERT_EQ(gates.size(), 1u);
  EXPECT_EQ(gates[0].control, 0u);
  EXPECT_EQ(gates[0].target, 1u);
}

TEST(Synthesis, ApplyNetworkMatchesMatrixApply) {
  Rng rng(99);
  const std::size_t n = 10;
  const Matrix m = Matrix::random_invertible(n, rng);
  const auto gates = synthesize_pmh(m);
  for (int rep = 0; rep < 30; ++rep) {
    BitVec x(n);
    for (std::size_t i = 0; i < n; ++i) x.set(i, rng.bernoulli(0.5));
    EXPECT_EQ(apply_network(gates, x), m.apply(x));
  }
}

TEST_P(SynthesisProperty, InverseNetworkRoundTrip) {
  // Synthesizing M and M^-1 and applying both networks in sequence must act
  // as the identity on random vectors.
  const std::size_t n = GetParam();
  Rng rng(83 + n);
  const Matrix m = Matrix::random_invertible(n, rng);
  const auto inv = m.inverse();
  ASSERT_TRUE(inv.has_value());
  const auto fwd = synthesize_pmh(m);
  const auto bwd = synthesize_pmh(*inv);
  for (int rep = 0; rep < 20; ++rep) {
    BitVec x(n);
    for (std::size_t i = 0; i < n; ++i) x.set(i, rng.bernoulli(0.5));
    EXPECT_EQ(apply_network(bwd, apply_network(fwd, x)), x);
  }
}

TEST_P(SynthesisProperty, EverySectionSizeRecomposes) {
  // The PMH section size is a performance knob, never a correctness one:
  // all of 1..n must reproduce the matrix exactly.
  const std::size_t n = GetParam();
  Rng rng(97 + n);
  const Matrix m = Matrix::random_invertible(n, rng);
  for (std::size_t section = 1; section <= n; ++section)
    EXPECT_EQ(network_matrix(n, synthesize_pmh(m, section)), m)
        << "section " << section;
}

TEST(BitVec, Mask64PacksLowWord) {
  BitVec v(28);
  v.set(0, true);
  v.set(3, true);
  v.set(27, true);
  EXPECT_EQ(v.mask64(), (1ULL << 0) | (1ULL << 3) | (1ULL << 27));
  EXPECT_EQ(BitVec(0).mask64(), 0u);
  EXPECT_EQ(BitVec(64).mask64(), 0u);
  BitVec full = BitVec::from_string("1101");
  EXPECT_EQ(full.mask64(), 0b1011ULL);
}

}  // namespace
}  // namespace femto::gf2
