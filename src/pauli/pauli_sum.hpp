// Linear combinations of Pauli strings (qubit operators).
//
// PauliSum is the qubit-side image of fermionic operators: Hamiltonians,
// excitation generators, and second-order correction operators all land here
// after a fermion-to-qubit transformation.
#pragma once

#include <complex>
#include <unordered_map>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace femto::pauli {

/// One addend of a PauliSum: coefficient times a *letter-form* string.
/// The string's prefactor is always folded into the coefficient so that
/// equal letter patterns merge.
struct PauliTerm {
  Complex coefficient;
  PauliString string;  // canonical: sign() == +1
};

class PauliSum {
 public:
  PauliSum() = default;
  explicit PauliSum(std::size_t n) : n_(n) {}

  [[nodiscard]] static PauliSum zero(std::size_t n) { return PauliSum(n); }

  [[nodiscard]] static PauliSum from_term(Complex coeff, PauliString s) {
    PauliSum sum(s.num_qubits());
    sum.add(coeff, std::move(s));
    return sum;
  }

  [[nodiscard]] std::size_t num_qubits() const { return n_; }
  [[nodiscard]] const std::vector<PauliTerm>& terms() const { return terms_; }
  [[nodiscard]] std::size_t size() const { return terms_.size(); }
  [[nodiscard]] bool empty() const { return terms_.empty(); }

  /// Adds coeff * s, folding s's prefactor into the coefficient and merging
  /// with an existing equal-letter term if present.
  void add(Complex coeff, PauliString s) {
    FEMTO_EXPECTS(n_ == 0 || s.num_qubits() == n_);
    if (n_ == 0) n_ = s.num_qubits();
    coeff *= s.sign();
    canonicalize(s);
    const auto it = index_.find(s);
    if (it != index_.end()) {
      terms_[it->second].coefficient += coeff;
    } else {
      index_.emplace(s, terms_.size());
      terms_.push_back({coeff, std::move(s)});
    }
  }

  void add(const PauliSum& other) {
    for (const PauliTerm& t : other.terms_) add(t.coefficient, t.string);
  }

  [[nodiscard]] friend PauliSum operator+(PauliSum lhs, const PauliSum& rhs) {
    lhs.add(rhs);
    return lhs;
  }

  [[nodiscard]] friend PauliSum operator*(Complex scalar, PauliSum sum) {
    for (PauliTerm& t : sum.terms_) t.coefficient *= scalar;
    return sum;
  }

  /// Operator product (distributes over all term pairs).
  [[nodiscard]] friend PauliSum operator*(const PauliSum& lhs,
                                          const PauliSum& rhs) {
    PauliSum out(std::max(lhs.n_, rhs.n_));
    for (const PauliTerm& a : lhs.terms_)
      for (const PauliTerm& b : rhs.terms_)
        out.add(a.coefficient * b.coefficient, a.string * b.string);
    out.prune();
    return out;
  }

  [[nodiscard]] PauliSum adjoint() const {
    PauliSum out(n_);
    for (const PauliTerm& t : terms_)
      out.add(std::conj(t.coefficient), t.string.adjoint());
    return out;
  }

  /// Drops terms with |coefficient| <= eps and rebuilds the index.
  void prune(double eps = 1e-12) {
    std::vector<PauliTerm> kept;
    kept.reserve(terms_.size());
    for (PauliTerm& t : terms_)
      if (std::abs(t.coefficient) > eps) kept.push_back(std::move(t));
    terms_ = std::move(kept);
    index_.clear();
    for (std::size_t i = 0; i < terms_.size(); ++i)
      index_.emplace(terms_[i].string, i);
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const PauliTerm& t : terms_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "(%+.6g%+.6gi) ", t.coefficient.real(),
                    t.coefficient.imag());
      out += buf;
      out += t.string.to_string().substr(1);  // strip the '+' sign
      out += '\n';
    }
    return out;
  }

 private:
  /// Forces sign() == +1 by zeroing the phase relative to the Y count.
  static void canonicalize(PauliString& s) {
    const int y_count = static_cast<int>((s.x() & s.z()).popcount());
    s.set_phase_exponent(y_count);
  }

  std::size_t n_ = 0;
  std::vector<PauliTerm> terms_;
  std::unordered_map<PauliString, std::size_t, PauliLettersHash, PauliLettersEq>
      index_;
};

}  // namespace femto::pauli
