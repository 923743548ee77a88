// Reference build of sort_advanced's GTSP instance, kept verbatim from the
// historical per-vertex-pair fill -- every (vertex, vertex) pair of two
// different blocks re-checks same_letters and re-prices the interface
// through synth::interface_saving -- so core::detail::advanced_instance can
// be checked bit-for-bit against it: the same clusters, the same vertex
// targets and the same weight bytes, slack included.
//
// Test-only: nothing in src/ includes this file.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "core/sorting.hpp"

namespace femto::oracle {

[[nodiscard]] inline core::detail::AdvancedInstance
advanced_instance_reference(const std::vector<synth::RotationBlock>& blocks,
                            const synth::HardwareTarget* hw) {
  // Vertex table: (block index, target).
  struct Vertex {
    std::size_t block;
    std::size_t target;
    double bonus;  // cluster-min string cost - this vertex's string cost
  };
  std::vector<Vertex> vertices;
  const bool device = hw != nullptr && !hw->is_all_to_all_cnot();
  const bool constrained = device && hw->coupling.constrained();
  // Vertices are numbered cluster by cluster, so each cluster's ids are
  // consecutive, as GtspDense requires.
  opt::GtspDense inst;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    std::vector<int> cluster;
    const std::size_t first = vertices.size();
    for (std::size_t t : core::valid_targets(blocks[k])) {
      cluster.push_back(static_cast<int>(vertices.size()));
      vertices.push_back({k, t, 0.0});
    }
    FEMTO_EXPECTS(!cluster.empty());
    if (constrained) {
      int min_cost = std::numeric_limits<int>::max();
      for (std::size_t v = first; v < vertices.size(); ++v)
        min_cost = std::min(
            min_cost, synth::string_cost(blocks[k].string,
                                         vertices[v].target, *hw));
      for (std::size_t v = first; v < vertices.size(); ++v)
        vertices[v].bonus = static_cast<double>(
            min_cost - synth::string_cost(blocks[k].string,
                                          vertices[v].target, *hw));
    }
    inst.clusters.push_back(std::move(cluster));
  }
  // Dense interface-saving table. Identical letter strings get weight 0 (the
  // paper inserts no edge between equal strings; adjacency is allowed but
  // yields no credit). Intra-cluster pairs are never consulted and stay 0.
  inst.allocate();
  for (std::size_t a = 0; a < vertices.size(); ++a) {
    const Vertex& va = vertices[a];
    for (std::size_t b = 0; b < vertices.size(); ++b) {
      const Vertex& vb = vertices[b];
      if (va.block == vb.block) continue;
      double w = 0.0;
      if (!blocks[va.block].string.same_letters(blocks[vb.block].string))
        w = device ? synth::interface_saving(blocks[va.block].string,
                                             va.target,
                                             blocks[vb.block].string,
                                             vb.target, *hw)
                   : synth::interface_saving(blocks[va.block].string,
                                             va.target,
                                             blocks[vb.block].string,
                                             vb.target);
      w += vb.bonus;
      inst.set_weight(static_cast<int>(a), static_cast<int>(b), w);
    }
  }
  core::detail::AdvancedInstance out;
  out.gtsp = std::move(inst);
  for (const Vertex& v : vertices) out.targets.push_back(v.target);
  return out;
}

}  // namespace femto::oracle
