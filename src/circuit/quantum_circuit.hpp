// Quantum circuit container with gate statistics, inversion, and dumps.
#pragma once

#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace femto::circuit {

class QuantumCircuit {
 public:
  QuantumCircuit() = default;
  explicit QuantumCircuit(std::size_t n) : n_(n) {}

  [[nodiscard]] std::size_t num_qubits() const { return n_; }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  /// Mutable access for rewrite passes (peephole); invariants (qubit bounds)
  /// are the caller's responsibility.
  [[nodiscard]] std::vector<Gate>& mutable_gates() { return gates_; }
  [[nodiscard]] std::size_t size() const { return gates_.size(); }
  [[nodiscard]] bool empty() const { return gates_.empty(); }

  void append(Gate g) {
    FEMTO_EXPECTS(g.q0 < n_ && (!g.two_qubit() || g.q1 < n_));
    gates_.push_back(g);
  }

  void append(const QuantumCircuit& other) {
    FEMTO_EXPECTS(other.n_ <= n_);
    for (const Gate& g : other.gates_) append(g);
  }

  /// Total entangling cost in CNOT-equivalents (the paper's figure of merit).
  [[nodiscard]] int cnot_count() const {
    int count = 0;
    for (const Gate& g : gates_) count += g.cnot_cost();
    return count;
  }

  [[nodiscard]] std::size_t single_qubit_count() const {
    std::size_t count = 0;
    for (const Gate& g : gates_)
      if (!g.two_qubit()) ++count;
    return count;
  }

  /// Number of distinct variational parameters referenced.
  [[nodiscard]] int num_params() const {
    int max_param = -1;
    for (const Gate& g : gates_) max_param = std::max(max_param, g.param);
    return max_param + 1;
  }

  /// Circuit depth (greedy ASAP layering).
  [[nodiscard]] std::size_t depth() const {
    std::vector<std::size_t> level(n_, 0);
    std::size_t depth = 0;
    for (const Gate& g : gates_) {
      std::size_t l = level[g.q0];
      if (g.two_qubit()) l = std::max(l, level[g.q1]);
      ++l;
      level[g.q0] = l;
      if (g.two_qubit()) level[g.q1] = l;
      depth = std::max(depth, l);
    }
    return depth;
  }

  /// Adjoint circuit: gates reversed, each inverted. The switch is
  /// exhaustive on purpose (no default): a new GateKind must state its
  /// inverse explicitly or fail to compile, rather than silently landing in
  /// a self-inverse bucket. Negating `angle` inverts both literal rotations
  /// and variational ones (the effective angle is angle * theta[param], so
  /// the sign flip holds for every parameter value).
  [[nodiscard]] QuantumCircuit inverse() const {
    QuantumCircuit inv(n_);
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
      Gate g = *it;
      switch (g.kind) {
        case GateKind::kS: g.kind = GateKind::kSdg; break;
        case GateKind::kSdg: g.kind = GateKind::kS; break;
        case GateKind::kRz:
        case GateKind::kRx:
        case GateKind::kRy:
        case GateKind::kXXrot:
        case GateKind::kXYrot: g.angle = -g.angle; break;
        case GateKind::kX:
        case GateKind::kY:
        case GateKind::kZ:
        case GateKind::kH:
        case GateKind::kCnot:
        case GateKind::kCz:
        case GateKind::kSwap: break;  // self-inverse
      }
      inv.append(g);
    }
    return inv;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const Gate& g : gates_) {
      out += g.to_string();
      out += '\n';
    }
    return out;
  }

 private:
  std::size_t n_ = 0;
  std::vector<Gate> gates_;
};

}  // namespace femto::circuit
