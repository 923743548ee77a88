// Compilation specification for circuit verification.
//
// stage_emit (core/compiler.hpp) records, alongside the emitted circuit, the
// exact ordered operation stream the circuit is supposed to implement: the
// decompression CNOTs, the bosonic-block gates, and every sorted rotation
// block handed to the synthesizer. The spec is the *input* to synthesis, not
// its output, so checking the emitted circuit against it
// (verify/equivalence.hpp) is an independent end-to-end certificate over the
// synthesizer, the peephole passes, and (checked against the lowered circuit
// on non-default targets) native-gate lowering and routing -- at any qubit
// count, in milliseconds, without a 2^n vector.
//
// This header is deliberately light (gate IR + rotation blocks only) so the
// core compiler can record specs without depending on the verification
// machinery.
#pragma once

#include <vector>

#include "circuit/gate.hpp"
#include "synth/cost_model.hpp"

namespace femto::verify {

/// One specified operation: either a literal gate (Clifford bookkeeping such
/// as decompression CNOTs, or the bosonic Sdg/XYrot/S triple) or a rotation
/// block exp(-i angle/2 * string) as defined by synth::RotationBlock.
struct SpecOp {
  enum class Kind { kGate, kRotation };
  Kind kind = Kind::kGate;
  circuit::Gate gate;          // valid when kind == kGate
  synth::RotationBlock block;  // valid when kind == kRotation

  [[nodiscard]] static SpecOp from_gate(circuit::Gate g) {
    SpecOp op;
    op.kind = Kind::kGate;
    op.gate = g;
    return op;
  }

  [[nodiscard]] static SpecOp from_block(synth::RotationBlock b) {
    SpecOp op;
    op.kind = Kind::kRotation;
    op.block = std::move(b);
    return op;
  }
};

/// Time-ordered specification of one compiled circuit.
using CompilationSpec = std::vector<SpecOp>;

/// Spec of a bare rotation-block sequence (what synthesize_sequence emits).
[[nodiscard]] inline CompilationSpec make_spec(
    const std::vector<synth::RotationBlock>& blocks) {
  CompilationSpec spec;
  spec.reserve(blocks.size());
  for (const synth::RotationBlock& b : blocks)
    spec.push_back(SpecOp::from_block(b));
  return spec;
}

}  // namespace femto::verify
