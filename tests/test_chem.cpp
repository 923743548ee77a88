// Tests for the quantum-chemistry substrate: integrals, SCF, MP2, FCI.
//
// Anchors: Szabo & Ostlund's H2/STO-3G at R = 1.4 a0 (E_RHF = -1.1167 Ha),
// standard STO-3G SCF energies for H2O / LiH / HF / BeH2 / NH3, and
// internal consistency (FCI below RHF by a sane correlation energy; FCI in
// determinant basis == Lanczos on the JW-encoded qubit Hamiltonian).
#include <gtest/gtest.h>

#include "chem/fci.hpp"
#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "support/lanczos.hpp"
#include "transform/linear_encoding.hpp"

namespace femto::chem {
namespace {

struct Pipeline {
  Molecule mol;
  IntegralTables ints;
  ScfResult scf;
};

[[nodiscard]] Pipeline run_pipeline(Molecule mol) {
  std::vector<BasisFunction> basis = build_sto3g(mol);
  normalize_basis(basis);
  IntegralTables ints = compute_integrals(mol, basis);
  ScfResult scf = run_rhf(mol, ints);
  return {std::move(mol), std::move(ints), std::move(scf)};
}

TEST(Boys, KnownValues) {
  // F_0(0) = 1, F_1(0) = 1/3; F_0(T) = sqrt(pi/T)/2 erf(sqrt(T)).
  const auto f0 = boys(2, 0.0);
  EXPECT_NEAR(f0[0], 1.0, 1e-14);
  EXPECT_NEAR(f0[1], 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(f0[2], 0.2, 1e-14);
  const double t = 3.7;
  const auto f = boys(4, t);
  EXPECT_NEAR(f[0], 0.5 * std::sqrt(M_PI / t) * std::erf(std::sqrt(t)), 1e-12);
  // Both branches (series+downward for T<35, closed form+upward for T>35)
  // must match the erf closed form for F_0 and satisfy the exact recurrence
  // F_{m+1} = ((2m+1) F_m - e^-T) / (2T).
  for (const double tt : {30.0, 34.9, 35.1, 40.0}) {
    const auto ff = boys(3, tt);
    EXPECT_NEAR(ff[0], 0.5 * std::sqrt(M_PI / tt) * std::erf(std::sqrt(tt)),
                1e-12);
    for (int m = 0; m < 3; ++m)
      EXPECT_NEAR(ff[static_cast<std::size_t>(m) + 1],
                  ((2 * m + 1) * ff[static_cast<std::size_t>(m)] -
                   std::exp(-tt)) /
                      (2 * tt),
                  1e-12);
  }
}

TEST(Integrals, OverlapNormalizedDiagonal) {
  const Molecule mol = make_h2o();
  std::vector<BasisFunction> basis = build_sto3g(mol);
  normalize_basis(basis);
  const IntegralTables ints = compute_integrals(mol, basis);
  ASSERT_EQ(ints.n, 7u);
  for (std::size_t i = 0; i < ints.n; ++i)
    EXPECT_NEAR(ints.overlap(i, i), 1.0, 1e-10);
  // Overlap symmetric positive-definite with eigenvalues in (0, 2).
  const EigenResult eig = jacobi_eigensymmetric(ints.overlap);
  for (double v : eig.values) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Integrals, EriPermutationalSymmetry) {
  const Molecule mol = make_lih();
  std::vector<BasisFunction> basis = build_sto3g(mol);
  normalize_basis(basis);
  const IntegralTables ints = compute_integrals(mol, basis);
  const std::size_t n = ints.n;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l) {
          const double v = ints.eri_at(i, j, k, l);
          EXPECT_NEAR(v, ints.eri_at(j, i, k, l), 1e-10);
          EXPECT_NEAR(v, ints.eri_at(i, j, l, k), 1e-10);
          EXPECT_NEAR(v, ints.eri_at(k, l, i, j), 1e-10);
        }
}

TEST(Scf, H2SzaboOstlundAnchor) {
  // Szabo & Ostlund Table 3.5: H2/STO-3G at R = 1.4 a0,
  // E_total = -1.1167 Hartree.
  const Pipeline p = run_pipeline(make_h2(1.4));
  ASSERT_TRUE(p.scf.converged);
  EXPECT_NEAR(p.scf.total_energy, -1.1167, 2e-4);
}

TEST(Scf, WaterSto3gEnergyBand) {
  // Literature STO-3G RHF water energies at near-equilibrium geometries sit
  // around -74.96 Ha.
  const Pipeline p = run_pipeline(make_h2o());
  ASSERT_TRUE(p.scf.converged);
  EXPECT_NEAR(p.scf.total_energy, -74.963, 0.01);
  EXPECT_EQ(p.scf.num_occupied, 5u);
}

TEST(Scf, OtherMoleculesConvergeInSaneBands) {
  const Pipeline lih = run_pipeline(make_lih());
  ASSERT_TRUE(lih.scf.converged);
  EXPECT_NEAR(lih.scf.total_energy, -7.86, 0.02);

  const Pipeline hf = run_pipeline(make_hf());
  ASSERT_TRUE(hf.scf.converged);
  EXPECT_NEAR(hf.scf.total_energy, -98.57, 0.02);

  const Pipeline beh2 = run_pipeline(make_beh2());
  ASSERT_TRUE(beh2.scf.converged);
  EXPECT_NEAR(beh2.scf.total_energy, -15.56, 0.02);

  const Pipeline nh3 = run_pipeline(make_nh3());
  ASSERT_TRUE(nh3.scf.converged);
  EXPECT_NEAR(nh3.scf.total_energy, -55.45, 0.03);
}

TEST(Mp2, NegativeCorrelationEnergy) {
  const Pipeline p = run_pipeline(make_h2o());
  const MoIntegrals mo = transform_to_mo(p.mol, p.ints, p.scf);
  const double e2 = mp2_energy(mo);
  EXPECT_LT(e2, 0.0);
  EXPECT_GT(e2, -0.1);  // STO-3G water MP2 corr ~ -0.036 Ha
  EXPECT_NEAR(e2, -0.036, 0.008);
}

TEST(MoIntegrals, FockDiagonalInMoBasis) {
  // In the MO basis, h_pq + sum_i <pi||qi> must be diagonal with the
  // orbital energies on the diagonal (canonical HF condition).
  const Pipeline p = run_pipeline(make_h2o());
  const MoIntegrals mo = transform_to_mo(p.mol, p.ints, p.scf);
  const SpinOrbitalIntegrals so = to_spin_orbitals(mo);
  for (std::size_t pq = 0; pq < so.n; ++pq) {
    for (std::size_t rs = 0; rs < so.n; ++rs) {
      double fock = so.h_at(pq, rs);
      for (std::size_t i = 0; i < so.nelec; ++i)
        fock += so.anti_at(pq, i, rs, i);
      if (pq == rs)
        EXPECT_NEAR(fock, so.orbital_energies[pq], 1e-6);
      else
        EXPECT_NEAR(fock, 0.0, 1e-6);
    }
  }
}

TEST(Fci, H2ExactEnergy) {
  // H2/STO-3G FCI at 1.4 a0: E ~ -1.1372 Ha (textbook value ~ -1.13728).
  const Pipeline p = run_pipeline(make_h2(1.4));
  const MoIntegrals mo = transform_to_mo(p.mol, p.ints, p.scf);
  const SpinOrbitalIntegrals so = to_spin_orbitals(mo);
  const FciResult fci = run_fci(so);
  EXPECT_TRUE(fci.converged);
  EXPECT_EQ(fci.dimension, 4u);
  EXPECT_NEAR(fci.energy, -1.1372, 5e-4);
  EXPECT_LT(fci.energy, p.scf.total_energy);
}

TEST(Fci, MatchesQubitLanczosForH2) {
  const Pipeline p = run_pipeline(make_h2(1.4));
  const MoIntegrals mo = transform_to_mo(p.mol, p.ints, p.scf);
  const SpinOrbitalIntegrals so = to_spin_orbitals(mo);
  const FciResult fci = run_fci(so);
  // Independent path: JW-encode the full Hamiltonian and Lanczos the qubit
  // space (which spans every particle sector -- ground state of H2 lies in
  // the N=2 sector for this Hamiltonian).
  const fermion::FermionOperator h = build_hamiltonian(so);
  const auto enc = transform::LinearEncoding::jordan_wigner(so.n);
  const auto res = oracle::lanczos_ground_energy(enc.map(h), so.n);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.ground_energy, fci.energy, 1e-6);
}

TEST(Fci, MatchesQubitLanczosForLih) {
  const Pipeline p = run_pipeline(make_lih());
  const MoIntegrals mo = transform_to_mo(p.mol, p.ints, p.scf);
  const SpinOrbitalIntegrals so = to_spin_orbitals(mo);
  const FciResult fci = run_fci(so);
  EXPECT_TRUE(fci.converged);
  EXPECT_LT(fci.energy, p.scf.total_energy);
  // The 12-qubit Fock space spans every electron count, and for LiH/STO-3G
  // other sectors dip below the neutral ground state. Penalize particle
  // number to select the N = 4 sector: H' = H + lambda (N - nelec)^2.
  fermion::FermionOperator number;
  for (std::size_t i = 0; i < so.n; ++i)
    number = number + fermion::FermionOperator::term({1.0, 0.0},
                                                     {{i, true}, {i, false}});
  const fermion::FermionOperator dev =
      number - fermion::FermionOperator::identity(
                   {static_cast<double>(so.nelec), 0.0});
  const fermion::FermionOperator h =
      build_hamiltonian(so) + pauli::Complex(2.0, 0.0) * (dev * dev);
  const auto enc = transform::LinearEncoding::bravyi_kitaev(so.n);
  const auto res = oracle::lanczos_ground_energy(enc.map(h), so.n, 300);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.ground_energy, fci.energy, 1e-6);
}

TEST(Hamiltonian, HartreeFockExpectationMatchesScf) {
  // <HF| H |HF> must equal the SCF total energy.
  const Pipeline p = run_pipeline(make_h2o());
  const MoIntegrals mo = transform_to_mo(p.mol, p.ints, p.scf);
  const SpinOrbitalIntegrals so = to_spin_orbitals(mo);
  double e = so.nuclear_repulsion;
  for (std::size_t i = 0; i < so.nelec; ++i) e += so.h_at(i, i);
  for (std::size_t i = 0; i < so.nelec; ++i)
    for (std::size_t j = i + 1; j < so.nelec; ++j) e += so.anti_at(i, j, i, j);
  EXPECT_NEAR(e, p.scf.total_energy, 1e-8);
}

}  // namespace
}  // namespace femto::chem
