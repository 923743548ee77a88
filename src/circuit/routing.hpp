// Connectivity-aware SWAP routing.
//
// A CouplingMap is the undirected two-qubit connectivity graph of a device
// (empty = all-to-all). route_circuit transforms a circuit so that every
// two-qubit gate acts on an adjacent physical pair: it maintains a
// logical->physical placement, walks the distant operand along a BFS
// shortest path (precomputed breadth-first next-hop tables) inserting
// SWAPs, and finally restores the identity permutation by token-sliding on a
// spanning tree. Because the placement starts AND ends at the identity, the
// routed circuit implements exactly the original unitary -- which is what
// lets verify::EquivalenceChecker certify routed circuits against the
// original compilation spec (SWAPs are Clifford and fold into the tableau).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "graph/digraph.hpp"

namespace femto::circuit {

class CouplingMap {
 public:
  /// Default: unconstrained (all-to-all); routing is a no-op.
  CouplingMap() = default;

  /// Builds the O(n^2) routing tables once; copies share them read-only, so
  /// a target copied into every restart job costs a pointer, not 16 n^2
  /// bytes.
  CouplingMap(std::size_t n,
              std::vector<std::pair<std::size_t, std::size_t>> edges) {
    FEMTO_EXPECTS(n > 0);
    auto tables = std::make_shared<Tables>();
    tables->n = n;
    tables->edges = std::move(edges);
    build_tables(*tables);
    tables_ = std::move(tables);
  }

  /// Nearest-neighbor chain 0 - 1 - ... - (n-1).
  [[nodiscard]] static CouplingMap line(std::size_t n) {
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t q = 0; q + 1 < n; ++q) edges.push_back({q, q + 1});
    return CouplingMap(n, std::move(edges));
  }

  /// Chain closed into a cycle.
  [[nodiscard]] static CouplingMap ring(std::size_t n) {
    FEMTO_EXPECTS(n >= 3);
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t q = 0; q + 1 < n; ++q) edges.push_back({q, q + 1});
    edges.push_back({n - 1, 0});
    return CouplingMap(n, std::move(edges));
  }

  [[nodiscard]] bool constrained() const { return tables_ != nullptr; }
  [[nodiscard]] std::size_t num_qubits() const {
    return constrained() ? tables_->n : 0;
  }
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& edges()
      const {
    static const std::vector<std::pair<std::size_t, std::size_t>> kNone;
    return constrained() ? tables_->edges : kNone;
  }

  [[nodiscard]] bool adjacent(std::size_t a, std::size_t b) const {
    return distance(a, b) == 1;
  }

  /// Hop distance; on an unconstrained map every distinct pair is adjacent
  /// (distance 1). graph::kUnreachable across disconnected components.
  [[nodiscard]] std::size_t distance(std::size_t a, std::size_t b) const {
    if (!constrained()) return a == b ? 0 : 1;
    FEMTO_EXPECTS(a < tables_->n && b < tables_->n);
    return tables_->dist[a][b];
  }

  /// First vertex on a shortest path from `a` toward `b` (a != b, reachable).
  [[nodiscard]] std::size_t next_hop(std::size_t a, std::size_t b) const {
    FEMTO_EXPECTS(constrained() && a < tables_->n && b < tables_->n && a != b);
    FEMTO_EXPECTS(tables_->dist[a][b] != graph::kUnreachable);
    return tables_->next[a][b];
  }

  /// Diagnostic for inconsistent configurations; empty string = valid.
  [[nodiscard]] std::string validate(std::size_t circuit_qubits) const {
    if (!constrained()) return "";
    const std::size_t n = tables_->n;
    if (n < circuit_qubits)
      return "coupling map has " + std::to_string(n) +
             " qubits but the circuit needs " + std::to_string(circuit_qubits);
    for (const auto& [a, b] : tables_->edges) {
      if (a >= n || b >= n)
        return "coupling edge (" + std::to_string(a) + "," +
               std::to_string(b) + ") out of range for " + std::to_string(n) +
               " qubits";
      if (a == b) return "coupling self-loop at qubit " + std::to_string(a);
    }
    for (std::size_t v = 1; v < n; ++v)
      if (tables_->dist[0][v] == graph::kUnreachable)
        return "coupling graph is disconnected (qubit " + std::to_string(v) +
               " unreachable from qubit 0)";
    return "";
  }

 private:
  struct Tables {
    std::size_t n = 0;
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    std::vector<std::vector<std::size_t>> dist;
    std::vector<std::vector<std::size_t>> next;
  };

  /// Breadth-first search from every qubit over sorted adjacency lists:
  /// O(n (n + e)). Neighbors are scanned in ascending order, so each
  /// shortest-path tree -- and with it every next hop -- is the one
  /// graph::bfs_shortest_paths picks.
  static void build_tables(Tables& t) {
    const std::size_t n = t.n;
    std::vector<std::vector<std::size_t>> adjacent(n);
    for (const auto& [a, b] : t.edges) {
      if (a >= n || b >= n || a == b) continue;  // reported by validate()
      adjacent[a].push_back(b);
      adjacent[b].push_back(a);
    }
    for (std::vector<std::size_t>& nbrs : adjacent) {
      std::sort(nbrs.begin(), nbrs.end());
      nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    }
    t.dist.assign(n, std::vector<std::size_t>(n, graph::kUnreachable));
    t.next.assign(n, std::vector<std::size_t>(n, graph::kUnreachable));
    std::vector<std::size_t> order;
    for (std::size_t from = 0; from < n; ++from) {
      std::vector<std::size_t>& dist = t.dist[from];
      std::vector<std::size_t>& next = t.next[from];
      dist[from] = 0;
      order.assign(1, from);
      for (std::size_t head = 0; head < order.size(); ++head) {
        const std::size_t v = order[head];
        for (const std::size_t u : adjacent[v]) {
          if (dist[u] != graph::kUnreachable) continue;
          dist[u] = dist[v] + 1;
          next[u] = v == from ? u : next[v];  // first hop of the tree path
          order.push_back(u);
        }
      }
    }
  }

  std::shared_ptr<const Tables> tables_;  // null = unconstrained
};

struct RoutingResult {
  QuantumCircuit circuit;   // physical-wire circuit, permutation restored
  int swaps_inserted = 0;   // 3 CNOT-equivalents each
};

namespace detail {

/// BFS path between two vertices restricted to an allowed vertex set (used
/// by the final permutation restore so already-placed qubits stay put).
/// Returns the vertex list from `from` to `to` inclusive; empty if cut off.
[[nodiscard]] inline std::vector<std::size_t> restricted_path(
    const CouplingMap& cm, std::size_t from, std::size_t to,
    const std::vector<bool>& allowed) {
  const std::size_t n = cm.num_qubits();
  std::vector<std::size_t> parent(n, graph::kUnreachable);
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> frontier{from};
  seen[from] = true;
  while (!frontier.empty() && !seen[to]) {
    std::vector<std::size_t> next;
    for (std::size_t v : frontier) {
      for (const auto& [a, b] : cm.edges()) {
        const std::size_t u = a == v ? b : (b == v ? a : graph::kUnreachable);
        if (u == graph::kUnreachable || seen[u] || !allowed[u]) continue;
        seen[u] = true;
        parent[u] = v;
        next.push_back(u);
      }
    }
    frontier = std::move(next);
  }
  if (!seen[to]) return {};
  std::vector<std::size_t> path{to};
  while (path.back() != from) path.push_back(parent[path.back()]);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace detail

/// Inserts SWAPs so every two-qubit gate acts on coupled physical qubits and
/// the final placement is the identity (routed circuit == original unitary).
[[nodiscard]] inline RoutingResult route_circuit(const QuantumCircuit& in,
                                                 const CouplingMap& cm) {
  FEMTO_EXPECTS(cm.constrained());
  FEMTO_EXPECTS(cm.validate(in.num_qubits()).empty());
  RoutingResult out;
  out.circuit = QuantumCircuit(cm.num_qubits());
  // Placement over ALL device qubits (spare physical qubits beyond the
  // circuit's n carry their own index as a phantom logical).
  std::vector<std::size_t> log2phys(cm.num_qubits()), phys2log(cm.num_qubits());
  for (std::size_t q = 0; q < cm.num_qubits(); ++q) log2phys[q] = phys2log[q] = q;

  const auto do_swap = [&](std::size_t pa, std::size_t pb) {
    FEMTO_ASSERT(cm.adjacent(pa, pb));
    out.circuit.append(Gate::swap(pa, pb));
    ++out.swaps_inserted;
    std::swap(phys2log[pa], phys2log[pb]);
    log2phys[phys2log[pa]] = pa;
    log2phys[phys2log[pb]] = pb;
  };

  for (const Gate& g : in.gates()) {
    Gate placed = g;
    placed.q0 = log2phys[g.q0];
    if (g.two_qubit()) {
      std::size_t pa = log2phys[g.q0];
      const std::size_t pb = log2phys[g.q1];
      // Walk q0's operand toward q1 until coupled.
      while (cm.distance(pa, pb) > 1) {
        const std::size_t hop = cm.next_hop(pa, pb);
        do_swap(pa, hop);
        pa = hop;
      }
      placed.q0 = pa;
      placed.q1 = pb;
    }
    out.circuit.append(placed);
  }

  // Restore the identity permutation by token sliding: fix physical
  // positions in reverse-BFS order from vertex 0, routing each token through
  // the still-unfixed region only (which stays connected: we always remove
  // the farthest remaining vertex).
  {
    graph::Digraph g(cm.num_qubits());
    for (const auto& [a, b] : cm.edges()) {
      if (a == b) continue;
      g.add_edge(a, b);
      g.add_edge(b, a);
    }
    const graph::BfsPaths from0 = graph::bfs_shortest_paths(g, 0);
    std::vector<std::size_t> order(cm.num_qubits());
    for (std::size_t q = 0; q < cm.num_qubits(); ++q) order[q] = q;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (from0.dist[a] != from0.dist[b]) return from0.dist[a] > from0.dist[b];
      return a > b;
    });
    std::vector<bool> unfixed(cm.num_qubits(), true);
    for (std::size_t target : order) {
      const std::size_t at = log2phys[target];  // where logical `target` sits
      if (at != target) {
        const std::vector<std::size_t> path =
            detail::restricted_path(cm, at, target, unfixed);
        FEMTO_ASSERT(path.size() >= 2);
        for (std::size_t k = 0; k + 1 < path.size(); ++k)
          do_swap(path[k], path[k + 1]);
      }
      unfixed[target] = false;
    }
    for (std::size_t q = 0; q < cm.num_qubits(); ++q)
      FEMTO_ASSERT(phys2log[q] == q);
  }
  return out;
}

/// True when every two-qubit gate of `c` acts on a coupled pair (the router's
/// postcondition; exposed for tests and validation).
[[nodiscard]] inline bool respects_coupling(const QuantumCircuit& c,
                                            const CouplingMap& cm) {
  if (!cm.constrained()) return true;
  for (const Gate& g : c.gates())
    if (g.two_qubit() && !cm.adjacent(g.q0, g.q1)) return false;
  return true;
}

}  // namespace femto::circuit
