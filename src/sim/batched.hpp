// Batched statevector simulation: B states advancing together in one
// structure-of-arrays buffer.
//
// Layout: lane-interleaved ("SoA over states"). With L = bit_ceil(B) lanes,
// amplitude i of state b lives at amps[(i << lane_pow) + b]. Because L is a
// power of two, applying a gate on qubit q across ALL lanes is exactly the
// same index arithmetic as applying it on qubit q + lane_pow of a single
// (n + lane_pow)-qubit state -- so BatchedState reuses the per-state
// dispatchers of sim/statevector.hpp verbatim, with the qubit shift set to
// lane_pow. The payoff is twofold:
//   - one circuit -> B states costs one pass over a single contiguous
//     buffer (B-fold fewer kernel launches, B-wide contiguous inner runs
//     that feed the SIMD primitives even for high qubits), and
//   - results are bit-identical to the per-state path BY CONSTRUCTION:
//     identical kernels, identical per-element arithmetic, only the memory
//     layout differs. tests/test_simd.cpp pins this for every gate kind.
//
// Per-lane variation (each state gets its own rotation angle -- the VQE
// parameter-sweep case) is supported for Pauli exponentials through the
// *_lanes kernels, which carry lane-duplicated coefficient arrays so the
// per-element op tree still matches what kernels::apply_pauli_exp would do
// for that lane's angle.
//
// Padding lanes (b >= batch_size, present when B is not a power of two)
// hold all-zero amplitudes; every kernel is linear, so they stay zero and
// are never read back.
#pragma once

#include <bit>
#include <complex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/statevector.hpp"

namespace femto::sim {

class BatchedState {
 public:
  /// Ceiling on n + lane_pow: the padded buffer never exceeds 2^28
  /// amplitudes (4 GiB).
  static constexpr std::size_t kMaxPaddedQubits = 28;

  /// True when (n, batch) fits the padded SoA representation -- the same
  /// contract the constructor enforces with FEMTO_EXPECTS. Callers that
  /// want a graceful fallback check this instead of letting the
  /// constructor abort.
  [[nodiscard]] static bool fits(std::size_t n, std::size_t batch) {
    if (batch < 1 || batch > (std::size_t{1} << kMaxPaddedQubits))
      return false;
    return n + lane_pow_for(batch) <= kMaxPaddedQubits;
  }

  /// B copies of |0...0> on n qubits.
  BatchedState(std::size_t n, std::size_t batch)
      : n_(n),
        batch_(batch),
        lane_pow_(checked_lane_pow(n, batch)),
        amps_((std::size_t{1} << (n + lane_pow_)), Complex{0.0, 0.0}) {
    for (std::size_t b = 0; b < batch_; ++b) amps_[b] = 1.0;
  }

  /// B copies of the computational basis state |index>.
  [[nodiscard]] static BatchedState basis_state(std::size_t n,
                                                std::size_t batch,
                                                std::size_t index) {
    BatchedState bs(n, batch);
    FEMTO_EXPECTS(index < (std::size_t{1} << n));
    for (std::size_t b = 0; b < batch; ++b) {
      bs.amps_[b] = 0.0;
      bs.amps_[(index << bs.lane_pow_) + b] = 1.0;
    }
    return bs;
  }

  /// Interleaves existing states (all must share the qubit count).
  [[nodiscard]] static BatchedState from_states(
      std::span<const StateVector> states) {
    FEMTO_EXPECTS(!states.empty());
    BatchedState bs(states[0].num_qubits(), states.size());
    const std::size_t dim = std::size_t{1} << bs.n_;
    for (std::size_t b = 0; b < states.size(); ++b) {
      FEMTO_EXPECTS(states[b].num_qubits() == bs.n_);
      for (std::size_t i = 0; i < dim; ++i)
        bs.amps_[(i << bs.lane_pow_) + b] = states[b].amplitude(i);
    }
    return bs;
  }

  [[nodiscard]] std::size_t num_qubits() const { return n_; }
  [[nodiscard]] std::size_t batch_size() const { return batch_; }
  [[nodiscard]] std::size_t lane_count() const {
    return std::size_t{1} << lane_pow_;
  }
  [[nodiscard]] std::size_t lane_pow() const { return lane_pow_; }
  /// Per-state dimension 2^n (the padded buffer is dim() * lane_count()).
  [[nodiscard]] std::size_t dim() const { return std::size_t{1} << n_; }
  [[nodiscard]] const std::vector<Complex>& amplitudes() const { return amps_; }

  [[nodiscard]] Complex amplitude(std::size_t b, std::size_t i) const {
    FEMTO_EXPECTS(b < batch_ && i < dim());
    return amps_[(i << lane_pow_) + b];
  }

  /// Extracts lane b as a standalone StateVector.
  [[nodiscard]] StateVector lane(std::size_t b) const {
    FEMTO_EXPECTS(b < batch_);
    StateVector sv(n_);
    for (std::size_t i = 0; i < dim(); ++i)
      sv.amplitudes()[i] = amps_[(i << lane_pow_) + b];
    return sv;
  }

  // --- shared application (one circuit -> B states) ---------------------

  void apply_gate(const circuit::Gate& g, std::span<const double> params = {}) {
    FEMTO_EXPECTS(g.q0 < n_ && (!g.two_qubit() || g.q1 < n_));
    detail::apply_gate_raw(amps_.data(), amps_.size(), lane_pow_, g, params);
    count_applied(batch_);
  }

  void apply_circuit(const circuit::QuantumCircuit& c,
                     std::span<const double> params = {}) {
    FEMTO_EXPECTS(c.num_qubits() <= n_);
    detail::apply_circuit_raw(amps_.data(), amps_.size(), lane_pow_, c, params);
    count_applied(batch_);
  }

  /// exp(-i angle/2 P) on every lane (shared angle).
  void apply_pauli_exp(const pauli::PauliString& p, double angle) {
    FEMTO_EXPECTS(p.num_qubits() == n_);
    FEMTO_EXPECTS(p.is_hermitian());
    const double sgn = p.sign().real();
    const double half = sgn * angle / 2;
    kernels::apply_pauli_exp(amps_.data(), amps_.size(),
                             detail::make_masks(p, lane_pow_), std::cos(half),
                             std::sin(half));
    count_applied(batch_);
  }

  // --- per-lane application (the parameter-sweep case) ------------------

  /// exp(-i angles[b]/2 P) on lane b. Per-element arithmetic matches what
  /// the per-state kernel does for that lane's angle (pinned in
  /// tests/test_simd.cpp), so a parameter sweep through here is bit-exact
  /// with B independent StateVector runs.
  void apply_pauli_exp(const pauli::PauliString& p,
                       std::span<const double> angles) {
    FEMTO_EXPECTS(p.num_qubits() == n_);
    FEMTO_EXPECTS(p.is_hermitian());
    FEMTO_EXPECTS(angles.size() == batch_);
    const double sgn = p.sign().real();
    const std::size_t lanes = lane_count();
    // Lane-duplicated cos/sin tiles (period = one lane block). Padding lanes
    // get theta = 0; their amplitudes are zero anyway.
    std::vector<double> cd(2 * lanes, 1.0), sd(2 * lanes, 0.0);
    for (std::size_t b = 0; b < batch_; ++b) {
      const double half = sgn * angles[b] / 2;
      cd[2 * b] = cd[2 * b + 1] = std::cos(half);
      sd[2 * b] = sd[2 * b + 1] = std::sin(half);
    }
    apply_pauli_exp_lanes(detail::make_masks(p, lane_pow_), cd, sd);
    count_applied(batch_);
  }

  // --- observables ------------------------------------------------------

  /// out += coeff * P applied per lane (padded layout, shifted masks; the
  /// per-element ops match StateVector::accumulate_pauli on each lane).
  void accumulate_pauli(const pauli::PauliString& p, Complex coeff,
                        std::vector<Complex>& out) const {
    FEMTO_EXPECTS(out.size() == amps_.size());
    kernels::accumulate_pauli(amps_.data(), amps_.size(),
                              detail::make_masks(p, lane_pow_),
                              coeff * p.sign(), out.data());
  }

  /// H |psi_b> for every lane, in the padded layout.
  [[nodiscard]] std::vector<Complex> apply_sum(const pauli::PauliSum& h) const {
    std::vector<Complex> out(amps_.size(), Complex{0.0, 0.0});
    for (const pauli::PauliTerm& t : h.terms())
      accumulate_pauli(t.string, t.coefficient, out);
    return out;
  }

  /// <psi_b| H |psi_b> for every lane. Each lane accumulates over ascending
  /// amplitude index -- the same summation order as StateVector::expectation,
  /// so the results are bit-identical to B independent runs.
  [[nodiscard]] std::vector<Complex> expectations(
      const pauli::PauliSum& h) const {
    const std::vector<Complex> hpsi = apply_sum(h);
    std::vector<Complex> acc(batch_, Complex{0.0, 0.0});
    for (std::size_t b = 0; b < batch_; ++b)
      for (std::size_t i = 0; i < dim(); ++i) {
        const std::size_t k = (i << lane_pow_) + b;
        acc[b] += std::conj(amps_[k]) * hpsi[k];
      }
    return acc;
  }

 private:
  [[nodiscard]] static std::size_t lane_pow_for(std::size_t batch) {
    return static_cast<std::size_t>(std::bit_width(std::bit_ceil(batch) >> 1));
  }

  /// Validates (n, batch) BEFORE amps_ is allocated: lane_pow_ precedes
  /// amps_ in declaration order, so an invalid request aborts here rather
  /// than after an oversized-shift (UB for n + lane_pow >= 64) or a
  /// multi-GiB allocation attempt.
  [[nodiscard]] static std::size_t checked_lane_pow(std::size_t n,
                                                    std::size_t batch) {
    FEMTO_EXPECTS(batch >= 1);
    FEMTO_EXPECTS(fits(n, batch));
    return lane_pow_for(batch);
  }

  /// Per-lane Pauli exponential over the padded array. Same sub-run
  /// decomposition as kernels::apply_pauli_exp (phases are constant over
  /// aligned runs below ctz of the shifted masks, and every padded sub-run
  /// is a whole number of lane blocks), with the *_lanes primitives carrying
  /// the per-lane cos/sin.
  void apply_pauli_exp_lanes(const kernels::PauliMasks& m,
                             std::span<const double> cd,
                             std::span<const double> sd) {
    const std::size_t lanes = lane_count();
    const std::size_t pdim = amps_.size();
    double* d = reinterpret_cast<double*>(amps_.data());
    if (m.x == 0) {
      // Diagonal: lane b scales by {cos_b, -+sin_b} depending on the run's
      // phase parity -- exactly the even/odd factors of the shared kernel.
      std::vector<double> fr(2 * lanes), fi_even(2 * lanes), fi_odd(2 * lanes);
      for (std::size_t j = 0; j < 2 * lanes; ++j) {
        fr[j] = cd[j];
        fi_even[j] = -sd[j];
        fi_odd[j] = sd[j];
      }
      const std::uint64_t z = m.z;
      const std::size_t run = kernels::detail::phase_run(z, pdim);
      for (std::size_t g = 0; g < pdim; g += run) {
        const double* fi =
            (std::popcount(g & z) & 1) ? fi_odd.data() : fi_even.data();
        for (std::size_t off = 0; off < run; off += lanes)
          kernels::runs::scale_lanes(d + 2 * (g + off), lanes, fr.data(), fi);
      }
      return;
    }
    const std::size_t pb = std::size_t{1} << (std::bit_width(m.x) - 1);
    const std::size_t flip = static_cast<std::size_t>(m.x);
    // Per-lane u = mis_b * phase(j), v = mis_b * phase(i) for both phase
    // signs, with mis_b = {0, -sin_b} -- the same products the shared kernel
    // forms per sub-run (phase() negates y_factor componentwise first).
    const Complex yf = m.y_factor;
    const Complex nyf = -yf;
    std::vector<double> ur_p(2 * lanes), ui_p(2 * lanes);
    std::vector<double> ur_m(2 * lanes), ui_m(2 * lanes);
    for (std::size_t b = 0; b < lanes; ++b) {
      const Complex mis{0.0, -sd[2 * b]};
      const Complex up = mis * yf;
      const Complex um = mis * nyf;
      ur_p[2 * b] = ur_p[2 * b + 1] = up.real();
      ui_p[2 * b] = ui_p[2 * b + 1] = up.imag();
      ur_m[2 * b] = ur_m[2 * b + 1] = um.real();
      ui_m[2 * b] = ui_m[2 * b + 1] = um.imag();
    }
    std::size_t sub = std::size_t{1} << std::countr_zero(flip);
    sub = std::min(sub, kernels::detail::phase_run(m.z, pb));
    sub = std::min(sub, pb);
    for (std::size_t g = 0; g < pdim; g += 2 * pb) {
      for (std::size_t i = g; i < g + pb; i += sub) {
        const std::size_t j = i ^ flip;
        const bool minus_i = std::popcount(i & m.z) & 1;
        const bool minus_j = std::popcount(j & m.z) & 1;
        const double* ur = minus_j ? ur_m.data() : ur_p.data();
        const double* ui = minus_j ? ui_m.data() : ui_p.data();
        const double* vr = minus_i ? ur_m.data() : ur_p.data();
        const double* vi = minus_i ? ui_m.data() : ui_p.data();
        for (std::size_t off = 0; off < sub; off += lanes)
          kernels::runs::rot2_lanes(amps_.data() + i + off,
                                    amps_.data() + j + off, lanes, cd.data(),
                                    ur, ui, vr, vi);
      }
    }
  }

  static void count_applied(std::size_t batch) {
    static obs::Counter& counter =
        obs::registry().counter("sim.batched_states_applied");
    counter.inc(batch);
  }

  std::size_t n_;
  std::size_t batch_;
  std::size_t lane_pow_;
  std::vector<Complex> amps_;
};

}  // namespace femto::sim
