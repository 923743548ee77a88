// Hybrid-encoding planner (paper Sec. III-A).
//
// Classifies excitation terms into bosonic / hybrid / fermionic, builds the
// directed symmetry-breaking graph over hybrid terms (edge h_i -> h_j iff
// applying h_i breaks the spin-pair parity h_j's compression needs), peels
// sinks and sources iteratively, colors the reduced graph with the
// randomized greedy GVCP heuristic, and returns the ordered application
// plan:
//     bosonic | sinks (peel order) | largest color class | sources
//     (reverse peel order) | fermionic (uncompressed, incl. folded hybrids)
// Every segment before "fermionic" is implemented with pair compression.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "fermion/excitation.hpp"
#include "graph/digraph.hpp"

namespace femto::encoding {

struct HybridPlan {
  // Ordered index lists into the input term vector.
  std::vector<std::size_t> bosonic;
  std::vector<std::size_t> sinks;
  std::vector<std::size_t> colored;
  std::vector<std::size_t> sources;
  std::vector<std::size_t> fermionic;

  // Diagnostics for benches/docs.
  int chromatic_number = 0;
  std::size_t hybrid_total = 0;
  std::size_t hybrid_folded = 0;

  /// Compressed segments concatenated in application order.
  [[nodiscard]] std::vector<std::size_t> compressed_order() const {
    std::vector<std::size_t> out;
    out.reserve(bosonic.size() + sinks.size() + colored.size() +
                sources.size());
    out.insert(out.end(), bosonic.begin(), bosonic.end());
    out.insert(out.end(), sinks.begin(), sinks.end());
    out.insert(out.end(), colored.begin(), colored.end());
    out.insert(out.end(), sources.begin(), sources.end());
    return out;
  }

  /// Full term order (compressed segments, then fermionic).
  [[nodiscard]] std::vector<std::size_t> full_order() const {
    std::vector<std::size_t> out = compressed_order();
    out.insert(out.end(), fermionic.begin(), fermionic.end());
    return out;
  }
};

/// Builds the plan. `coloring_orders` controls the number of random greedy
/// coloring passes (paper Sec. IV).
[[nodiscard]] inline HybridPlan plan_hybrid_encoding(
    const std::vector<fermion::ExcitationTerm>& terms, Rng& rng,
    int coloring_orders = 64) {
  using fermion::ExcitationClass;
  HybridPlan plan;
  std::vector<std::size_t> hybrid_ids;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    switch (terms[i].classification()) {
      case ExcitationClass::kBosonic: plan.bosonic.push_back(i); break;
      case ExcitationClass::kHybrid: hybrid_ids.push_back(i); break;
      case ExcitationClass::kFermionic: plan.fermionic.push_back(i); break;
    }
  }
  plan.hybrid_total = hybrid_ids.size();
  if (hybrid_ids.empty()) return plan;

  // Directed graph: edge i -> j iff hybrid i breaks hybrid j's symmetry.
  graph::Digraph g(hybrid_ids.size());
  for (std::size_t i = 0; i < hybrid_ids.size(); ++i)
    for (std::size_t j = 0; j < hybrid_ids.size(); ++j)
      if (i != j &&
          terms[hybrid_ids[i]].breaks_symmetry_of(terms[hybrid_ids[j]]))
        g.add_edge(i, j);

  const graph::PeelResult peel = graph::peel_sinks_sources(g);
  for (std::size_t v : peel.sinks) plan.sinks.push_back(hybrid_ids[v]);
  for (std::size_t v : peel.sources) plan.sources.push_back(hybrid_ids[v]);

  if (!peel.remainder.empty()) {
    const graph::UndirectedGraph u =
        graph::UndirectedGraph::from_digraph_subset(g, peel.remainder);
    const graph::Coloring coloring =
        graph::greedy_color_randomized(u, rng, coloring_orders);
    plan.chromatic_number = coloring.num_colors;
    std::vector<bool> in_class(peel.remainder.size(), false);
    for (std::size_t v : coloring.largest_class()) {
      in_class[v] = true;
      plan.colored.push_back(hybrid_ids[peel.remainder[v]]);
    }
    // Hybrids outside the winning class fold into the fermionic segment.
    for (std::size_t v = 0; v < peel.remainder.size(); ++v) {
      if (!in_class[v]) {
        plan.fermionic.push_back(hybrid_ids[peel.remainder[v]]);
        ++plan.hybrid_folded;
      }
    }
  }
  return plan;
}

/// Spin pairs (lowest index of each) used *compressed* by the plan.
[[nodiscard]] inline std::vector<std::size_t> compressed_pairs(
    const std::vector<fermion::ExcitationTerm>& terms, const HybridPlan& plan) {
  std::vector<bool> seen;
  std::vector<std::size_t> out;
  const auto note = [&](std::size_t lo) {
    if (lo >= seen.size()) seen.resize(lo + 1, false);
    if (!seen[lo]) {
      seen[lo] = true;
      out.push_back(lo);
    }
  };
  for (std::size_t i : plan.compressed_order()) {
    const auto& t = terms[i];
    if (t.creation_is_spin_pair()) note(t.p);
    if (t.annihilation_is_spin_pair()) note(t.r);
  }
  return out;
}

}  // namespace femto::encoding
