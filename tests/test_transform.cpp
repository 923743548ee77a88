// Tests for fermion-to-qubit transformations.
//
// Key invariants: the canonical anticommutation relations must hold as
// PauliSum identities for *every* encoding; spectra are encoding-invariant;
// occupation states map to the advertised basis states.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fermion/excitation.hpp"
#include "sim/statevector.hpp"
#include "support/lanczos.hpp"
#include "transform/linear_encoding.hpp"

namespace femto::transform {
namespace {

using fermion::FermionOperator;
using pauli::Complex;
using pauli::PauliSum;

/// ||A||: max |coefficient| of the sum.
[[nodiscard]] double max_coeff(const PauliSum& s) {
  double m = 0;
  for (const auto& t : s.terms()) m = std::max(m, std::abs(t.coefficient));
  return m;
}

TEST(JordanWigner, LadderKnownForm) {
  // a_2 on 4 modes: 0.5 ZZXI + 0.5i ZZYI
  const PauliSum a2 = jw_ladder(4, 2, false);
  ASSERT_EQ(a2.size(), 2u);
  bool saw_x = false, saw_y = false;
  for (const auto& t : a2.terms()) {
    if (t.string.same_letters(pauli::PauliString::from_string("ZZXI"))) {
      saw_x = true;
      EXPECT_NEAR(std::abs(t.coefficient - Complex(0.5, 0)), 0, 1e-12);
    }
    if (t.string.same_letters(pauli::PauliString::from_string("ZZYI"))) {
      saw_y = true;
      EXPECT_NEAR(std::abs(t.coefficient - Complex(0, 0.5)), 0, 1e-12);
    }
  }
  EXPECT_TRUE(saw_x);
  EXPECT_TRUE(saw_y);
}

class EncodingCar : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] static LinearEncoding make(int which, std::size_t n) {
    switch (which) {
      case 0: return LinearEncoding::jordan_wigner(n);
      case 1: return LinearEncoding::bravyi_kitaev(n);
      case 2: return LinearEncoding::parity(n);
      default: {
        Rng rng(1234);
        return LinearEncoding(gf2::Matrix::random_invertible(n, rng));
      }
    }
  }
};

TEST_P(EncodingCar, CanonicalAnticommutationRelations) {
  const std::size_t n = 5;
  const LinearEncoding enc = make(GetParam(), n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const FermionOperator ai = FermionOperator::ladder(i, false);
      const FermionOperator adj = FermionOperator::ladder(j, true);
      const FermionOperator aj = FermionOperator::ladder(j, false);
      // {a_i, a_j^dag} = delta_ij
      PauliSum anti = enc.map(ai * adj + adj * ai);
      anti.add({i == j ? -1.0 : 0.0, 0.0},
               pauli::PauliString::identity(n));
      anti.prune();
      EXPECT_LT(max_coeff(anti), 1e-12) << "i=" << i << " j=" << j;
      // {a_i, a_j} = 0
      PauliSum anti2 = enc.map(ai * aj + aj * ai);
      anti2.prune();
      EXPECT_LT(max_coeff(anti2), 1e-12);
    }
  }
}

TEST_P(EncodingCar, NumberOperatorOnEncodedBasisStates) {
  // <An| n_i |An> must equal the occupation bit n_i.
  const std::size_t n = 4;
  const LinearEncoding enc = make(GetParam(), n);
  for (std::size_t occ = 0; occ < (1u << n); ++occ) {
    gf2::BitVec occ_bits(n);
    for (std::size_t q = 0; q < n; ++q)
      occ_bits.set(q, (occ >> q) & 1);
    const gf2::BitVec encoded = enc.encode_occupation(occ_bits);
    std::size_t index = 0;
    for (std::size_t q = 0; q < n; ++q)
      if (encoded.get(q)) index |= std::size_t{1} << q;
    const sim::StateVector sv = sim::StateVector::basis_state(n, index);
    for (std::size_t i = 0; i < n; ++i) {
      const FermionOperator num =
          FermionOperator::ladder(i, true) * FermionOperator::ladder(i, false);
      const double expect = occ_bits.get(i) ? 1.0 : 0.0;
      EXPECT_NEAR(sv.expectation(enc.map(num)).real(), expect, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, EncodingCar, ::testing::Values(0, 1, 2, 3));

TEST(Encodings, BravyiKitaevMatrixFenwickStructure) {
  // For n=4 the BK (Fenwick) matrix rows cover ranges: {0}, {0,1}, {2},
  // {0,1,2,3}.
  const LinearEncoding bk = LinearEncoding::bravyi_kitaev(4);
  const gf2::Matrix& a = bk.matrix();
  EXPECT_EQ(a.row(0).to_string(), "1000");
  EXPECT_EQ(a.row(1).to_string(), "1100");
  EXPECT_EQ(a.row(2).to_string(), "0010");
  EXPECT_EQ(a.row(3).to_string(), "1111");
}

TEST(Encodings, ParityEncodingPrefixSums) {
  const LinearEncoding par = LinearEncoding::parity(3);
  EXPECT_EQ(par.matrix().row(0).to_string(), "100");
  EXPECT_EQ(par.matrix().row(1).to_string(), "110");
  EXPECT_EQ(par.matrix().row(2).to_string(), "111");
}

TEST(Encodings, SpectrumInvariantAcrossEncodings) {
  // A small interacting Hamiltonian: H = sum eps_i n_i + g (a0+ a1+ a2 a3 +
  // h.c.). The ground energy must be identical under JW, BK, parity, random.
  const std::size_t n = 4;
  FermionOperator h;
  const double eps[4] = {-1.0, -0.5, 0.25, 0.7};
  for (std::size_t i = 0; i < n; ++i) {
    h = h + eps[i] * (FermionOperator::ladder(i, true) *
                      FermionOperator::ladder(i, false));
  }
  const FermionOperator exc = FermionOperator::term(
      {0.35, 0.0}, {{0, true}, {1, true}, {2, false}, {3, false}});
  h = h + exc + exc.adjoint();

  Rng rng(55);
  std::vector<LinearEncoding> encodings;
  encodings.push_back(LinearEncoding::jordan_wigner(n));
  encodings.push_back(LinearEncoding::bravyi_kitaev(n));
  encodings.push_back(LinearEncoding::parity(n));
  encodings.push_back(LinearEncoding(gf2::Matrix::random_invertible(n, rng)));

  std::vector<double> energies;
  for (const auto& enc : encodings) {
    const PauliSum hq = enc.map(h);
    energies.push_back(oracle::lanczos_ground_energy(hq, n).ground_energy);
  }
  for (std::size_t k = 1; k < energies.size(); ++k)
    EXPECT_NEAR(energies[k], energies[0], 1e-8);
}

TEST(Encodings, SupportFastPathMatchesClifford) {
  Rng rng(77);
  const std::size_t n = 8;
  const LinearEncoding enc(gf2::Matrix::random_invertible(n, rng));
  for (int rep = 0; rep < 40; ++rep) {
    pauli::PauliString p(n);
    for (std::size_t q = 0; q < n; ++q)
      p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
    const pauli::PauliString exact = enc.map_string(p);
    const pauli::PauliString fast = enc.map_string_support(p);
    EXPECT_EQ(exact.x(), fast.x());
    EXPECT_EQ(exact.z(), fast.z());
  }
}

TEST(Encodings, GammaConjugationShortensExampleString) {
  // Paper appendix C: Gamma with 2x2 blocks [[1,0],[1,1]] on qubits (0,1)
  // and (4,5) maps XXIIXY to a shorter string (weight 4 -> weight 3 example:
  // XIIIYZ up to sign conventions; we check the weight drops).
  gf2::Matrix gamma = gf2::Matrix::identity(6);
  gamma.set(1, 0, true);
  gamma.set(5, 4, true);
  const LinearEncoding enc(gamma);
  const pauli::PauliString p = pauli::PauliString::from_string("XXIIXY");
  const pauli::PauliString img = enc.map_string(p);
  EXPECT_LT(img.weight(), p.weight());
}

}  // namespace
}  // namespace femto::transform
