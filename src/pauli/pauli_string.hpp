// Pauli strings in symplectic (x, z, phase) representation.
//
// A string is stored as  P = i^k * prod_j X_j^{x_j} Z_j^{z_j}  with
// k in {0,1,2,3}. The letter form (tensor products of I,X,Y,Z with a +/-
// sign) is derived on demand: on a site with x=z=1 the stored word is
// XZ = -iY, so the letter-form sign is i^(k - #Y mod 4).
//
// Exact phase tracking matters: the advanced fermion-to-qubit transformation
// (paper Sec. III-C) conjugates strings by CNOT networks, which flips signs
// (e.g. CNOT (Y@Y) CNOT = -X@Z), and the VQE energies depend on them.
#pragma once

#include <complex>
#include <cstdint>
#include <string>

#include "gf2/bitvec.hpp"
#include "gf2/wordops.hpp"

namespace femto::pauli {

using Complex = std::complex<double>;

/// Single-qubit Pauli letter.
enum class Letter : std::uint8_t { I = 0, X = 1, Y = 2, Z = 3 };

[[nodiscard]] constexpr char letter_char(Letter l) {
  constexpr char table[] = {'I', 'X', 'Y', 'Z'};
  return table[static_cast<int>(l)];
}

/// n-qubit Pauli string with an i^k prefactor.
class PauliString {
 public:
  PauliString() = default;
  explicit PauliString(std::size_t n) : x_(n), z_(n) {}

  /// Identity string on n qubits.
  [[nodiscard]] static PauliString identity(std::size_t n) {
    return PauliString(n);
  }

  /// Single-letter string: `letter` at qubit `q`, identity elsewhere.
  [[nodiscard]] static PauliString single(std::size_t n, std::size_t q,
                                          Letter letter) {
    PauliString p(n);
    p.set_letter(q, letter);
    return p;
  }

  /// Parses e.g. "XXIZ" (qubit 0 first); optional leading '+'/'-'.
  [[nodiscard]] static PauliString from_string(const std::string& s) {
    std::size_t begin = 0;
    bool negative = false;
    if (!s.empty() && (s[0] == '+' || s[0] == '-')) {
      negative = s[0] == '-';
      begin = 1;
    }
    PauliString p(s.size() - begin);
    for (std::size_t i = begin; i < s.size(); ++i) {
      switch (s[i]) {
        case 'I': break;
        case 'X': p.set_letter(i - begin, Letter::X); break;
        case 'Y': p.set_letter(i - begin, Letter::Y); break;
        case 'Z': p.set_letter(i - begin, Letter::Z); break;
        default: FEMTO_EXPECTS(false && "bad Pauli character");
      }
    }
    if (negative) p.phase_ = (p.phase_ + 2) & 3;
    return p;
  }

  [[nodiscard]] std::size_t num_qubits() const { return x_.size(); }

  [[nodiscard]] Letter letter(std::size_t q) const {
    // code: 0 -> I, 1 (x only) -> X, 2 (z only) -> Z, 3 (both) -> Y.
    // Debug-checked accessors: letter() runs per site inside the cost-model
    // and sorting inner loops, where the release-mode bounds branch of
    // BitVec::get was measurable.
    const int code = (x_.get_u(q) ? 1 : 0) | (z_.get_u(q) ? 2 : 0);
    constexpr Letter table[] = {Letter::I, Letter::X, Letter::Z, Letter::Y};
    return table[code];
  }

  /// Sets the letter at qubit q, adjusting the i^k prefactor so that the
  /// letter form keeps its current sign on the other sites.
  void set_letter(std::size_t q, Letter letter) {
    // Remove the current letter's contribution.
    if (x_.get(q) && z_.get(q)) phase_ = (phase_ + 3) & 3;  // was Y: divide by i
    x_.set(q, false);
    z_.set(q, false);
    switch (letter) {
      case Letter::I: break;
      case Letter::X: x_.set(q, true); break;
      case Letter::Z: z_.set(q, true); break;
      case Letter::Y:
        x_.set(q, true);
        z_.set(q, true);
        phase_ = (phase_ + 1) & 3;  // Y = i * XZ
        break;
    }
  }

  [[nodiscard]] const gf2::BitVec& x() const { return x_; }
  [[nodiscard]] const gf2::BitVec& z() const { return z_; }
  [[nodiscard]] int phase_exponent() const { return phase_; }

  /// Replaces the symplectic parts wholesale (used by the fast Gamma-matrix
  /// conjugation path where signs are irrelevant).
  void set_symplectic(gf2::BitVec x, gf2::BitVec z) {
    FEMTO_EXPECTS(x.size() == z.size());
    x_ = std::move(x);
    z_ = std::move(z);
  }

  void set_phase_exponent(int k) { phase_ = k & 3; }

  /// Number of non-identity sites. Fused or+popcount over the word spans,
  /// no temporary BitVec (string_cost calls this per block inside the
  /// annealing loops).
  [[nodiscard]] std::size_t weight() const {
    return gf2::wordops::or_popcount(x_.word_data(), z_.word_data(),
                                     x_.word_count());
  }

  /// Bit mask of non-identity sites.
  [[nodiscard]] gf2::BitVec support() const { return x_ | z_; }

  [[nodiscard]] bool is_identity_letters() const {
    return !x_.any() && !z_.any();
  }

  /// True when this string equals +/- a tensor of Hermitian letters
  /// (equivalently the overall prefactor is real).
  [[nodiscard]] bool is_hermitian() const {
    const int y_count = static_cast<int>((x_ & z_).popcount());
    return ((phase_ - y_count) & 1) == 0;
  }

  /// Letter-form sign as a complex unit: i^(k - #Y).
  [[nodiscard]] Complex sign() const {
    const int y_count = static_cast<int>((x_ & z_).popcount());
    switch ((phase_ - y_count) & 3) {
      case 0: return {1.0, 0.0};
      case 1: return {0.0, 1.0};
      case 2: return {-1.0, 0.0};
      default: return {0.0, -1.0};
    }
  }

  /// Product of two strings with exact phase: per-site reordering
  /// Z^{z1} X^{x2} = (-1)^{z1 x2} X^{x2} Z^{z1}.
  [[nodiscard]] friend PauliString operator*(const PauliString& a,
                                             const PauliString& b) {
    FEMTO_EXPECTS(a.num_qubits() == b.num_qubits());
    PauliString out(a.num_qubits());
    out.x_ = a.x_ ^ b.x_;
    out.z_ = a.z_ ^ b.z_;
    int k = a.phase_ + b.phase_;
    if (a.z_.dot(b.x_)) k += 2;
    out.phase_ = k & 3;
    return out;
  }

  [[nodiscard]] PauliString adjoint() const {
    PauliString out = *this;
    // (i^k X^x Z^z)^dag = i^{-k} Z^z X^x = i^{-k} (-1)^{x.z} X^x Z^z
    int k = -phase_;
    if (x_.dot(z_)) k += 2;
    out.phase_ = k & 3;
    return out;
  }

  /// True when the two strings commute (symplectic form is even).
  [[nodiscard]] bool commutes_with(const PauliString& other) const {
    return x_.dot(other.z_) == z_.dot(other.x_);
  }

  /// Compares letters only (ignores the prefactor).
  [[nodiscard]] bool same_letters(const PauliString& other) const {
    return x_ == other.x_ && z_ == other.z_;
  }

  [[nodiscard]] bool operator==(const PauliString& other) const {
    return phase_ == other.phase_ && x_ == other.x_ && z_ == other.z_;
  }

  /// Letter form, e.g. "-XXIZ". Only defined up to the letter-form sign for
  /// Hermitian strings; general strings print the i^k form.
  [[nodiscard]] std::string to_string() const {
    std::string out;
    const Complex s = sign();
    if (s == Complex{1.0, 0.0})
      out += '+';
    else if (s == Complex{-1.0, 0.0})
      out += '-';
    else if (s == Complex{0.0, 1.0})
      out += "+i";
    else
      out += "-i";
    for (std::size_t q = 0; q < num_qubits(); ++q)
      out += letter_char(letter(q));
    return out;
  }

 private:
  gf2::BitVec x_;
  gf2::BitVec z_;
  int phase_ = 0;  // exponent k of the i^k prefactor
};

/// Hash over letters *and* phase.
struct PauliStringHash {
  [[nodiscard]] std::size_t operator()(const PauliString& p) const {
    std::size_t h = gf2::hash_value(p.x());
    h = h * 31 + gf2::hash_value(p.z());
    return h * 31 + static_cast<std::size_t>(p.phase_exponent());
  }
};

/// Hash/equality over letters only (prefactor ignored); used when grouping
/// strings into GTSP clusters.
struct PauliLettersHash {
  [[nodiscard]] std::size_t operator()(const PauliString& p) const {
    return gf2::hash_value(p.x()) * 31 + gf2::hash_value(p.z());
  }
};
struct PauliLettersEq {
  [[nodiscard]] bool operator()(const PauliString& a,
                                const PauliString& b) const {
    return a.same_letters(b);
  }
};

}  // namespace femto::pauli
