// THE canonical scenario/request/result serialization for the compilation
// service -- shared by femtod, femto_client, femto-db, and the benches, so
// there is exactly one wire shape for a compile in the whole tree.
//
// Canonical means: encode builds every object in one fixed field order with
// json.hpp's deterministic scalar rendering, so value equality == byte
// equality of the encodings. Three things lean on that:
//  * the coalescing key (coalesce_key) -- identical in-flight requests are
//    detected by comparing encoded bytes;
//  * the bit-identity CI pins -- a daemon-served response must encode to
//    exactly the same bytes as the in-process compile of the same request;
//  * round-trip tests -- decode(encode(x)) re-encodes to encode(x).
//
// Every decode_* is total: any malformed input (wrong type, unknown enum,
// out-of-range number, garbage bytes) comes back as `false` + diagnostic,
// never an abort -- protocol input is untrusted by definition.
//
// Wire shapes (all one JSON line each):
//   term       ["s",p,r,mp2] | ["d",p,q,r,s,mp2]
//   coupling   null | {"n":5,"edges":[[0,1],[1,2]]}
//   target     {"name":..,"entangler":"cnot"|"xx","allow_routing":..,
//               "routing_weight":..,"coupling":..}
//   options    {"transform":"jw"|"bk"|"gt"|"advanced","sorting":..,
//               "compression":..,"coloring_orders":..,"sa":{..},"pso":{..},
//               "gtsp":{..},"seed":..,"emit_circuit":..,"target":..}
//   scenario   {"name":..,"num_qubits":..,"terms":[..],"options":..}
//   request    {"scenarios":[..],"targets":[..],"restarts":..,
//               "seed":null|u64,"deadline_s":..,"verify":..}
//   response   {"status":"DONE"|..,"detail":..,"outcomes":[outcome..]}
//   outcome    {"scenario":..,"target":..,"model_cnots":..,
//               "emitted_cnots":..,"model_cost":..,"device_cost":..,
//               "routed_swaps":..,"best_restart":..,"restarts_completed":..,
//               "verified":null|bool,"restarts":[restart..],
//               "circuit":null|hex}
//   restart    {"seed":..,"model_cnots":..,"model_cost":..,
//               "device_cost":..,"completed":..}
//   circuit    hex of: u32 width, u32 gate count, then per gate {kind u32,
//               q0 u32, q1 u32, param u32, angle-bits u64}, little-endian
#pragma once

#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/pipeline.hpp"
#include "service/json.hpp"

namespace femto::service::protocol {

// --- enum <-> string maps ---------------------------------------------------

[[nodiscard]] inline const char* to_string(core::TransformKind k) {
  switch (k) {
    case core::TransformKind::kJordanWigner: return "jw";
    case core::TransformKind::kBravyiKitaev: return "bk";
    case core::TransformKind::kBaselineGT: return "gt";
    case core::TransformKind::kAdvanced: return "advanced";
  }
  return "?";
}

[[nodiscard]] inline std::optional<core::TransformKind> parse_transform(
    std::string_view s) {
  if (s == "jw") return core::TransformKind::kJordanWigner;
  if (s == "bk") return core::TransformKind::kBravyiKitaev;
  if (s == "gt") return core::TransformKind::kBaselineGT;
  if (s == "advanced") return core::TransformKind::kAdvanced;
  return std::nullopt;
}

[[nodiscard]] inline const char* to_string(core::SortingMode m) {
  switch (m) {
    case core::SortingMode::kNone: return "none";
    case core::SortingMode::kBaseline: return "baseline";
    case core::SortingMode::kAdvanced: return "advanced";
  }
  return "?";
}

[[nodiscard]] inline std::optional<core::SortingMode> parse_sorting(
    std::string_view s) {
  if (s == "none") return core::SortingMode::kNone;
  if (s == "baseline") return core::SortingMode::kBaseline;
  if (s == "advanced") return core::SortingMode::kAdvanced;
  return std::nullopt;
}

[[nodiscard]] inline const char* to_string(core::CompressionMode m) {
  switch (m) {
    case core::CompressionMode::kNone: return "none";
    case core::CompressionMode::kBosonicOnly: return "bosonic";
    case core::CompressionMode::kHybrid: return "hybrid";
  }
  return "?";
}

[[nodiscard]] inline std::optional<core::CompressionMode> parse_compression(
    std::string_view s) {
  if (s == "none") return core::CompressionMode::kNone;
  if (s == "bosonic") return core::CompressionMode::kBosonicOnly;
  if (s == "hybrid") return core::CompressionMode::kHybrid;
  return std::nullopt;
}

// (to_string(synth::EntanglerKind) already emits the wire spelling
// "cnot"/"xx" -- see synth/target.hpp; found here via ADL.)

[[nodiscard]] inline std::optional<synth::EntanglerKind> parse_entangler(
    std::string_view s) {
  if (s == "cnot") return synth::EntanglerKind::kCnot;
  if (s == "xx") return synth::EntanglerKind::kXX;
  return std::nullopt;
}

// --- hex (circuit payloads on the wire) -------------------------------------

[[nodiscard]] inline std::string encode_hex(std::string_view bytes) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    out += kHex[u >> 4];
    out += kHex[u & 0xf];
  }
  return out;
}

[[nodiscard]] inline std::optional<std::string> decode_hex(
    std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out += static_cast<char>((hi << 4) | lo);
  }
  return out;
}

// --- circuit payloads --------------------------------------------------------

/// Serializes a circuit into the wire payload bytes (before hex).
[[nodiscard]] inline std::string encode_circuit(
    const circuit::QuantumCircuit& c) {
  std::string out;
  out.reserve(8 + c.gates().size() * 24);
  append_le(out, c.num_qubits(), 4);
  append_le(out, c.gates().size(), 4);
  for (const circuit::Gate& g : c.gates()) {
    append_le(out, static_cast<std::uint32_t>(g.kind), 4);
    append_le(out, static_cast<std::uint32_t>(g.q0), 4);
    append_le(out, static_cast<std::uint32_t>(g.q1), 4);
    append_le(out, static_cast<std::uint32_t>(g.param), 4);
    append_le(out, std::bit_cast<std::uint64_t>(g.angle), 8);
  }
  return out;
}

/// Inverts encode_circuit; nullopt on malformed bytes.
[[nodiscard]] inline std::optional<circuit::QuantumCircuit> decode_circuit(
    std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < 8) return std::nullopt;
  const auto n = static_cast<std::uint32_t>(read_le(p, 4));
  const auto count = static_cast<std::uint32_t>(read_le(p + 4, 4));
  if (bytes.size() != 8 + std::size_t{count} * 24) return std::nullopt;
  circuit::QuantumCircuit c(n);
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* g = p + 8 + std::size_t{i} * 24;
    const auto kind = static_cast<std::uint32_t>(read_le(g, 4));
    if (kind > static_cast<std::uint32_t>(circuit::GateKind::kXYrot))
      return std::nullopt;
    circuit::Gate gate;
    gate.kind = static_cast<circuit::GateKind>(kind);
    gate.q0 = static_cast<std::uint32_t>(read_le(g + 4, 4));
    gate.q1 = static_cast<std::uint32_t>(read_le(g + 8, 4));
    gate.param = static_cast<int>(read_le(g + 12, 4));
    gate.angle = std::bit_cast<double>(read_le(g + 16, 8));
    if (gate.q0 >= n || (gate.two_qubit() && gate.q1 >= n)) return std::nullopt;
    c.append(gate);
  }
  return c;
}

// --- decode plumbing ---------------------------------------------------------

namespace detail {

[[nodiscard]] inline bool fail(std::string& err, std::string msg) {
  err = std::move(msg);
  return false;
}

[[nodiscard]] inline bool get_object(const json::Value& v,
                                     std::string_view what, std::string& err) {
  if (v.is_object()) return true;
  return fail(err, std::string(what) + " must be a JSON object");
}

[[nodiscard]] inline bool read_bool(const json::Value& obj,
                                    std::string_view key, bool& out,
                                    std::string& err) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;  // keep default
  if (!v->is_bool())
    return fail(err, "field '" + std::string(key) + "' must be a boolean");
  out = v->as_bool();
  return true;
}

[[nodiscard]] inline bool read_int(const json::Value& obj,
                                   std::string_view key, int& out,
                                   std::string& err) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;
  const std::optional<int> n = v->as_int();
  if (!n.has_value())
    return fail(err, "field '" + std::string(key) + "' must be an integer");
  out = *n;
  return true;
}

[[nodiscard]] inline bool read_u64(const json::Value& obj,
                                   std::string_view key, std::uint64_t& out,
                                   std::string& err) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;
  const std::optional<std::uint64_t> n = v->as_u64();
  if (!n.has_value())
    return fail(err, "field '" + std::string(key) +
                         "' must be a non-negative integer");
  out = *n;
  return true;
}

[[nodiscard]] inline bool read_size(const json::Value& obj,
                                    std::string_view key, std::size_t& out,
                                    std::string& err) {
  std::uint64_t u = out;
  if (!read_u64(obj, key, u, err)) return false;
  out = static_cast<std::size_t>(u);
  return true;
}

[[nodiscard]] inline bool read_double(const json::Value& obj,
                                      std::string_view key, double& out,
                                      std::string& err) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_number())
    return fail(err, "field '" + std::string(key) + "' must be a number");
  out = v->as_double();
  return true;
}

[[nodiscard]] inline bool read_string(const json::Value& obj,
                                      std::string_view key, std::string& out,
                                      std::string& err) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_string())
    return fail(err, "field '" + std::string(key) + "' must be a string");
  out = v->as_string();
  return true;
}

}  // namespace detail

// --- terms -------------------------------------------------------------------

[[nodiscard]] inline json::Value encode_term(const fermion::ExcitationTerm& t) {
  json::Value v = json::Value::array();
  if (t.kind == fermion::ExcitationTerm::Kind::kSingle) {
    v.push(json::Value::string("s"));
    v.push(json::Value::number(t.p));
    v.push(json::Value::number(t.r));
  } else {
    v.push(json::Value::string("d"));
    v.push(json::Value::number(t.p));
    v.push(json::Value::number(t.q));
    v.push(json::Value::number(t.r));
    v.push(json::Value::number(t.s));
  }
  v.push(json::Value::number(t.mp2_estimate));
  return v;
}

[[nodiscard]] inline bool decode_term(const json::Value& v,
                                      fermion::ExcitationTerm& out,
                                      std::string& err) {
  if (!v.is_array() || v.items().empty() || !v.items()[0].is_string())
    return detail::fail(err, "term must be [\"s\"|\"d\", indices..., mp2]");
  const std::string& kind = v.items()[0].as_string();
  auto index = [&](std::size_t i, std::size_t& slot) {
    const std::optional<std::uint64_t> n = v.items()[i].as_u64();
    if (!n.has_value()) return false;
    slot = static_cast<std::size_t>(*n);
    return true;
  };
  out = fermion::ExcitationTerm{};
  if (kind == "s") {
    if (v.items().size() != 4 || !v.items()[3].is_number())
      return detail::fail(err, "single term must be [\"s\",p,r,mp2]");
    out.kind = fermion::ExcitationTerm::Kind::kSingle;
    if (!index(1, out.p) || !index(2, out.r))
      return detail::fail(err, "single term indices must be integers");
    out.mp2_estimate = v.items()[3].as_double();
    return true;
  }
  if (kind == "d") {
    if (v.items().size() != 6 || !v.items()[5].is_number())
      return detail::fail(err, "double term must be [\"d\",p,q,r,s,mp2]");
    out.kind = fermion::ExcitationTerm::Kind::kDouble;
    if (!index(1, out.p) || !index(2, out.q) || !index(3, out.r) ||
        !index(4, out.s))
      return detail::fail(err, "double term indices must be integers");
    out.mp2_estimate = v.items()[5].as_double();
    return true;
  }
  return detail::fail(err, "unknown term kind '" + kind + "'");
}

// --- hardware target ---------------------------------------------------------

[[nodiscard]] inline json::Value encode_target(
    const synth::HardwareTarget& t) {
  json::Value v = json::Value::object();
  v.set("name", json::Value::string(t.name));
  v.set("entangler", json::Value::string(to_string(t.entangler)));
  v.set("allow_routing", json::Value::boolean(t.allow_routing));
  v.set("routing_weight", json::Value::number(t.routing_weight));
  if (t.coupling.constrained()) {
    json::Value c = json::Value::object();
    c.set("n", json::Value::number(t.coupling.num_qubits()));
    json::Value edges = json::Value::array();
    for (const auto& [a, b] : t.coupling.edges()) {
      json::Value e = json::Value::array();
      e.push(json::Value::number(a));
      e.push(json::Value::number(b));
      edges.push(std::move(e));
    }
    c.set("edges", std::move(edges));
    v.set("coupling", std::move(c));
  } else {
    v.set("coupling", json::Value());
  }
  return v;
}

[[nodiscard]] inline bool decode_target(const json::Value& v,
                                        synth::HardwareTarget& out,
                                        std::string& err) {
  if (!detail::get_object(v, "target", err)) return false;
  out = synth::HardwareTarget{};
  if (!detail::read_string(v, "name", out.name, err)) return false;
  std::string entangler = to_string(out.entangler);
  if (!detail::read_string(v, "entangler", entangler, err)) return false;
  const std::optional<synth::EntanglerKind> ek = parse_entangler(entangler);
  if (!ek.has_value())
    return detail::fail(err, "unknown entangler '" + entangler + "'");
  out.entangler = *ek;
  if (!detail::read_bool(v, "allow_routing", out.allow_routing, err))
    return false;
  if (!detail::read_int(v, "routing_weight", out.routing_weight, err))
    return false;
  const json::Value* coupling = v.find("coupling");
  if (coupling != nullptr && !coupling->is_null()) {
    if (!detail::get_object(*coupling, "coupling", err)) return false;
    std::size_t n = 0;
    if (!detail::read_size(*coupling, "n", n, err)) return false;
    if (n == 0 || n > core::kMaxQubits)  // refuse before allocating for n
      return detail::fail(err, "coupling.n must be in [1, " +
                                   std::to_string(core::kMaxQubits) + "]");
    const json::Value* edges = coupling->find("edges");
    if (edges == nullptr || !edges->is_array())
      return detail::fail(err, "coupling.edges must be an array");
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    pairs.reserve(edges->items().size());
    for (const json::Value& e : edges->items()) {
      if (!e.is_array() || e.items().size() != 2)
        return detail::fail(err, "coupling edge must be [a,b]");
      const std::optional<std::uint64_t> a = e.items()[0].as_u64();
      const std::optional<std::uint64_t> b = e.items()[1].as_u64();
      if (!a.has_value() || !b.has_value() || *a >= n || *b >= n || *a == *b)
        return detail::fail(err, "coupling edge endpoints must be distinct "
                                 "qubit indices below n");
      pairs.emplace_back(static_cast<std::size_t>(*a),
                         static_cast<std::size_t>(*b));
    }
    out.coupling = circuit::CouplingMap(n, std::move(pairs));
  }
  return true;
}

// --- compile options ---------------------------------------------------------

[[nodiscard]] inline json::Value encode_options(
    const core::CompileOptions& o) {
  json::Value v = json::Value::object();
  v.set("transform", json::Value::string(to_string(o.transform)));
  v.set("sorting", json::Value::string(to_string(o.sorting)));
  v.set("compression", json::Value::string(to_string(o.compression)));
  v.set("coloring_orders", json::Value::number(o.coloring_orders));
  json::Value sa = json::Value::object();
  sa.set("t_initial", json::Value::number(o.sa_options.t_initial));
  sa.set("t_final", json::Value::number(o.sa_options.t_final));
  sa.set("steps", json::Value::number(o.sa_options.steps));
  sa.set("reheat_interval", json::Value::number(o.sa_options.reheat_interval));
  v.set("sa", std::move(sa));
  json::Value pso = json::Value::object();
  pso.set("particles", json::Value::number(o.pso_options.particles));
  pso.set("iterations", json::Value::number(o.pso_options.iterations));
  pso.set("inertia", json::Value::number(o.pso_options.inertia));
  pso.set("cognitive", json::Value::number(o.pso_options.cognitive));
  pso.set("social", json::Value::number(o.pso_options.social));
  pso.set("v_clamp", json::Value::number(o.pso_options.v_clamp));
  v.set("pso", std::move(pso));
  json::Value gtsp = json::Value::object();
  gtsp.set("population", json::Value::number(o.gtsp_options.population));
  gtsp.set("generations", json::Value::number(o.gtsp_options.generations));
  gtsp.set("tournament", json::Value::number(o.gtsp_options.tournament));
  gtsp.set("mutation_rate",
           json::Value::number(o.gtsp_options.mutation_rate));
  gtsp.set("stagnation_limit",
           json::Value::number(o.gtsp_options.stagnation_limit));
  v.set("gtsp", std::move(gtsp));
  v.set("seed", json::Value::number(o.seed));
  v.set("emit_circuit", json::Value::boolean(o.emit_circuit));
  v.set("target", encode_target(o.target));
  return v;
}

[[nodiscard]] inline bool decode_options(const json::Value& v,
                                         core::CompileOptions& out,
                                         std::string& err) {
  if (!detail::get_object(v, "options", err)) return false;
  out = core::CompileOptions{};
  std::string transform = to_string(out.transform);
  std::string sorting = to_string(out.sorting);
  std::string compression = to_string(out.compression);
  if (!detail::read_string(v, "transform", transform, err)) return false;
  if (!detail::read_string(v, "sorting", sorting, err)) return false;
  if (!detail::read_string(v, "compression", compression, err)) return false;
  const std::optional<core::TransformKind> tk = parse_transform(transform);
  if (!tk.has_value())
    return detail::fail(err, "unknown transform '" + transform + "'");
  out.transform = *tk;
  const std::optional<core::SortingMode> sm = parse_sorting(sorting);
  if (!sm.has_value())
    return detail::fail(err, "unknown sorting '" + sorting + "'");
  out.sorting = *sm;
  const std::optional<core::CompressionMode> cm =
      parse_compression(compression);
  if (!cm.has_value())
    return detail::fail(err, "unknown compression '" + compression + "'");
  out.compression = *cm;
  if (!detail::read_int(v, "coloring_orders", out.coloring_orders, err))
    return false;
  if (const json::Value* sa = v.find("sa"); sa != nullptr) {
    if (!detail::get_object(*sa, "sa", err)) return false;
    if (!detail::read_double(*sa, "t_initial", out.sa_options.t_initial,
                             err) ||
        !detail::read_double(*sa, "t_final", out.sa_options.t_final, err) ||
        !detail::read_int(*sa, "steps", out.sa_options.steps, err) ||
        !detail::read_int(*sa, "reheat_interval",
                          out.sa_options.reheat_interval, err))
      return false;
  }
  if (const json::Value* pso = v.find("pso"); pso != nullptr) {
    if (!detail::get_object(*pso, "pso", err)) return false;
    if (!detail::read_int(*pso, "particles", out.pso_options.particles,
                          err) ||
        !detail::read_int(*pso, "iterations", out.pso_options.iterations,
                          err) ||
        !detail::read_double(*pso, "inertia", out.pso_options.inertia, err) ||
        !detail::read_double(*pso, "cognitive", out.pso_options.cognitive,
                             err) ||
        !detail::read_double(*pso, "social", out.pso_options.social, err) ||
        !detail::read_double(*pso, "v_clamp", out.pso_options.v_clamp, err))
      return false;
  }
  if (const json::Value* gtsp = v.find("gtsp"); gtsp != nullptr) {
    if (!detail::get_object(*gtsp, "gtsp", err)) return false;
    if (!detail::read_int(*gtsp, "population", out.gtsp_options.population,
                          err) ||
        !detail::read_int(*gtsp, "generations",
                          out.gtsp_options.generations, err) ||
        !detail::read_int(*gtsp, "tournament", out.gtsp_options.tournament,
                          err) ||
        !detail::read_double(*gtsp, "mutation_rate",
                             out.gtsp_options.mutation_rate, err) ||
        !detail::read_int(*gtsp, "stagnation_limit",
                          out.gtsp_options.stagnation_limit, err))
      return false;
  }
  if (!detail::read_u64(v, "seed", out.seed, err)) return false;
  if (!detail::read_bool(v, "emit_circuit", out.emit_circuit, err))
    return false;
  if (const json::Value* target = v.find("target"); target != nullptr) {
    if (!decode_target(*target, out.target, err)) return false;
  }
  return true;
}

// --- scenario ----------------------------------------------------------------

[[nodiscard]] inline json::Value encode_scenario(
    const core::CompileScenario& s) {
  json::Value v = json::Value::object();
  v.set("name", json::Value::string(s.name));
  v.set("num_qubits", json::Value::number(s.num_qubits));
  json::Value terms = json::Value::array();
  for (const fermion::ExcitationTerm& t : s.terms)
    terms.push(encode_term(t));
  v.set("terms", std::move(terms));
  v.set("options", encode_options(s.options));
  return v;
}

[[nodiscard]] inline bool decode_scenario(const json::Value& v,
                                          core::CompileScenario& out,
                                          std::string& err) {
  if (!detail::get_object(v, "scenario", err)) return false;
  out = core::CompileScenario{};
  if (!detail::read_string(v, "name", out.name, err)) return false;
  if (!detail::read_size(v, "num_qubits", out.num_qubits, err)) return false;
  if (out.num_qubits > core::kMaxQubits)
    return detail::fail(err, "scenario.num_qubits must be at most " +
                                 std::to_string(core::kMaxQubits));
  const json::Value* terms = v.find("terms");
  if (terms == nullptr || !terms->is_array())
    return detail::fail(err, "scenario.terms must be an array");
  out.terms.reserve(terms->items().size());
  for (const json::Value& t : terms->items()) {
    fermion::ExcitationTerm term;
    if (!decode_term(t, term, err)) return false;
    out.terms.push_back(term);
  }
  if (const json::Value* options = v.find("options"); options != nullptr) {
    if (!decode_options(*options, out.options, err)) return false;
  }
  return true;
}

/// Reads a scenario file: one canonical scenario per line, blank lines
/// skipped (what `femto-db export-scenarios` writes). Empty, with a
/// diagnostic naming the file and line, on any error or no scenario.
[[nodiscard]] inline std::vector<core::CompileScenario> read_scenario_file(
    const std::string& path, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open scenario file " + path;
    return {};
  }
  std::vector<core::CompileScenario> scenarios;
  std::size_t line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    if (line.empty()) continue;
    core::CompileScenario s;
    const std::optional<json::Value> v = json::parse(line, &err);
    if (!v.has_value() || !decode_scenario(*v, s, err)) {
      err = path + ":" + std::to_string(line_no) + ": " + err;
      return {};
    }
    scenarios.push_back(std::move(s));
  }
  if (scenarios.empty()) err = path + " has no scenarios";
  return scenarios;
}

// --- request -----------------------------------------------------------------

[[nodiscard]] inline json::Value encode_request(
    const core::CompileRequest& r) {
  json::Value v = json::Value::object();
  json::Value scenarios = json::Value::array();
  for (const core::CompileScenario& s : r.scenarios)
    scenarios.push(encode_scenario(s));
  v.set("scenarios", std::move(scenarios));
  json::Value targets = json::Value::array();
  for (const synth::HardwareTarget& t : r.targets)
    targets.push(encode_target(t));
  v.set("targets", std::move(targets));
  v.set("restarts", json::Value::number(r.restarts));
  v.set("seed", r.seed.has_value() ? json::Value::number(*r.seed)
                                   : json::Value());
  v.set("deadline_s", json::Value::number(r.deadline_s));
  v.set("verify", json::Value::boolean(r.verify));
  return v;
}

/// Most routing-table cells (the sum of n^2 over every coupling map) one
/// decoded request may name: a map of n qubits decodes into 16 n^2 bytes of
/// tables, so a short line naming many wide maps would otherwise demand
/// gigabytes before validation. The budget is one kMaxQubits-wide map.
inline constexpr std::uint64_t kMaxCouplingCells =
    std::uint64_t{core::kMaxQubits} * core::kMaxQubits;

namespace detail {

/// Routing-table cells (n^2) of the coupling map a wire target names; 0 for
/// none, a malformed one or one wider than kMaxQubits (decode_target
/// reports those by name), so sums cannot overflow.
[[nodiscard]] inline std::uint64_t coupling_cells(const json::Value* target) {
  const json::Value* coupling =
      target == nullptr ? nullptr : target->find("coupling");
  const json::Value* n = coupling == nullptr ? nullptr : coupling->find("n");
  const std::uint64_t width = n == nullptr ? 0 : n->as_u64().value_or(0);
  return width > core::kMaxQubits ? 0 : width * width;
}

}  // namespace detail

[[nodiscard]] inline bool decode_request(const json::Value& v,
                                         core::CompileRequest& out,
                                         std::string& err) {
  if (!detail::get_object(v, "request", err)) return false;
  out = core::CompileRequest{};
  const json::Value* scenarios = v.find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array())
    return detail::fail(err, "request.scenarios must be an array");
  std::uint64_t cells = 0;
  for (const json::Value& s : scenarios->items()) {
    const json::Value* options = s.find("options");
    if (options != nullptr)
      cells += detail::coupling_cells(options->find("target"));
  }
  if (const json::Value* targets = v.find("targets"); targets != nullptr)
    for (const json::Value& t : targets->items())
      cells += detail::coupling_cells(&t);
  if (cells > kMaxCouplingCells)
    return detail::fail(
        err, "request names coupling maps of " + std::to_string(cells) +
                 " routing-table cells in total (sum of n^2); the limit is " +
                 std::to_string(kMaxCouplingCells));
  out.scenarios.reserve(scenarios->items().size());
  for (const json::Value& s : scenarios->items()) {
    core::CompileScenario scenario;
    if (!decode_scenario(s, scenario, err)) return false;
    out.scenarios.push_back(std::move(scenario));
  }
  if (const json::Value* targets = v.find("targets"); targets != nullptr) {
    if (!targets->is_array())
      return detail::fail(err, "request.targets must be an array");
    out.targets.reserve(targets->items().size());
    for (const json::Value& t : targets->items()) {
      synth::HardwareTarget target;
      if (!decode_target(t, target, err)) return false;
      out.targets.push_back(std::move(target));
    }
  }
  if (!detail::read_size(v, "restarts", out.restarts, err)) return false;
  if (const json::Value* seed = v.find("seed");
      seed != nullptr && !seed->is_null()) {
    const std::optional<std::uint64_t> s = seed->as_u64();
    if (!s.has_value())
      return detail::fail(err,
                          "request.seed must be null or a non-negative "
                          "integer");
    out.seed = *s;
  }
  if (!detail::read_double(v, "deadline_s", out.deadline_s, err))
    return false;
  if (!detail::read_bool(v, "verify", out.verify, err)) return false;
  return true;
}

/// The canonical in-flight identity of a request: its encoding with the
/// budget fields zeroed, so N clients asking for the same compile under
/// different deadlines coalesce onto one execution (which runs under the
/// LEADER's deadline -- documented service semantics).
[[nodiscard]] inline std::string coalesce_key(const core::CompileRequest& r) {
  core::CompileRequest keyed = r;
  keyed.deadline_s = 0.0;
  keyed.cancel = nullptr;
  keyed.deadline_at.reset();
  return encode_request(keyed).encode();
}

// --- response ----------------------------------------------------------------

struct WireRestart {
  std::uint64_t seed = 0;
  int model_cnots = 0;
  int model_cost = 0;
  int device_cost = 0;
  bool completed = true;
};

struct WireOutcome {
  std::string scenario;
  std::string target;
  int model_cnots = 0;
  int emitted_cnots = 0;
  int model_cost = 0;
  int device_cost = 0;
  int routed_swaps = 0;
  std::size_t best_restart = 0;
  std::size_t restarts_completed = 0;
  /// nullopt = verification was not requested.
  std::optional<bool> verified;
  std::vector<WireRestart> restarts;
  /// Hex of encode_circuit(final circuit); empty = not shipped.
  std::string circuit_hex;
};

struct WireResponse {
  core::RequestStatus status = core::RequestStatus::kDone;
  std::string detail;
  std::vector<WireOutcome> outcomes;

  [[nodiscard]] bool done() const {
    return status == core::RequestStatus::kDone;
  }
};

[[nodiscard]] inline std::optional<core::RequestStatus> parse_status(
    std::string_view s) {
  for (const core::RequestStatus v :
       {core::RequestStatus::kDone, core::RequestStatus::kCancelled,
        core::RequestStatus::kDeadlineExceeded,
        core::RequestStatus::kRejected})
    if (s == core::to_string(v)) return v;
  return std::nullopt;
}

/// Flattens a pipeline response into its wire form. include_circuits ships
/// each outcome's final (lowered/routed) circuit as hex; the costs and
/// certificates always travel.
[[nodiscard]] inline WireResponse summarize(const core::CompileResponse& r,
                                            bool include_circuits) {
  WireResponse out;
  out.status = r.status;
  out.detail = r.detail;
  out.outcomes.reserve(r.outcomes.size());
  for (const core::ScenarioOutcome& oc : r.outcomes) {
    WireOutcome w;
    w.scenario = oc.scenario;
    w.target = oc.target.name;
    const core::CompileResult& best = oc.result.best;
    w.model_cnots = best.model_cnots;
    w.emitted_cnots = best.emitted_cnots;
    w.model_cost = best.model_cost;
    w.device_cost = best.device_cost;
    w.routed_swaps = best.routed_swaps;
    w.best_restart = oc.result.best_restart;
    w.restarts_completed = oc.restarts_completed;
    if (!oc.result.verification.empty())
      w.verified = oc.result.all_verified();
    w.restarts.reserve(oc.result.restarts.size());
    for (const core::RestartReport& rep : oc.result.restarts)
      w.restarts.push_back({rep.seed, rep.model_cnots, rep.model_cost,
                            rep.device_cost, rep.completed});
    if (include_circuits && oc.restarts_completed > 0) {
      const circuit::QuantumCircuit& final_circuit = best.final_circuit();
      if (final_circuit.num_qubits() > 0)
        w.circuit_hex =
            encode_hex(encode_circuit(final_circuit));
    }
    out.outcomes.push_back(std::move(w));
  }
  return out;
}

[[nodiscard]] inline json::Value encode_response(const WireResponse& r) {
  json::Value v = json::Value::object();
  v.set("status", json::Value::string(core::to_string(r.status)));
  v.set("detail", json::Value::string(r.detail));
  json::Value outcomes = json::Value::array();
  for (const WireOutcome& oc : r.outcomes) {
    json::Value o = json::Value::object();
    o.set("scenario", json::Value::string(oc.scenario));
    o.set("target", json::Value::string(oc.target));
    o.set("model_cnots", json::Value::number(oc.model_cnots));
    o.set("emitted_cnots", json::Value::number(oc.emitted_cnots));
    o.set("model_cost", json::Value::number(oc.model_cost));
    o.set("device_cost", json::Value::number(oc.device_cost));
    o.set("routed_swaps", json::Value::number(oc.routed_swaps));
    o.set("best_restart", json::Value::number(oc.best_restart));
    o.set("restarts_completed", json::Value::number(oc.restarts_completed));
    o.set("verified", oc.verified.has_value()
                          ? json::Value::boolean(*oc.verified)
                          : json::Value());
    json::Value restarts = json::Value::array();
    for (const WireRestart& rep : oc.restarts) {
      json::Value rj = json::Value::object();
      rj.set("seed", json::Value::number(rep.seed));
      rj.set("model_cnots", json::Value::number(rep.model_cnots));
      rj.set("model_cost", json::Value::number(rep.model_cost));
      rj.set("device_cost", json::Value::number(rep.device_cost));
      rj.set("completed", json::Value::boolean(rep.completed));
      restarts.push(std::move(rj));
    }
    o.set("restarts", std::move(restarts));
    o.set("circuit", oc.circuit_hex.empty()
                         ? json::Value()
                         : json::Value::string(oc.circuit_hex));
    outcomes.push(std::move(o));
  }
  v.set("outcomes", std::move(outcomes));
  return v;
}

/// The canonical served bytes of a response, circuits included: what the
/// wire carries, what the service's plan store keeps, and what a
/// compilation-database entry holds for its request.
[[nodiscard]] inline std::string canonical_response(
    const core::CompileResponse& r) {
  return encode_response(summarize(r, /*include_circuits=*/true)).encode();
}

[[nodiscard]] inline bool decode_response(const json::Value& v,
                                          WireResponse& out,
                                          std::string& err) {
  if (!detail::get_object(v, "response", err)) return false;
  out = WireResponse{};
  std::string status = core::to_string(out.status);
  if (!detail::read_string(v, "status", status, err)) return false;
  const std::optional<core::RequestStatus> st = parse_status(status);
  if (!st.has_value())
    return detail::fail(err, "unknown status '" + status + "'");
  out.status = *st;
  if (!detail::read_string(v, "detail", out.detail, err)) return false;
  const json::Value* outcomes = v.find("outcomes");
  if (outcomes == nullptr || !outcomes->is_array())
    return detail::fail(err, "response.outcomes must be an array");
  out.outcomes.reserve(outcomes->items().size());
  for (const json::Value& o : outcomes->items()) {
    if (!detail::get_object(o, "outcome", err)) return false;
    WireOutcome oc;
    if (!detail::read_string(o, "scenario", oc.scenario, err) ||
        !detail::read_string(o, "target", oc.target, err) ||
        !detail::read_int(o, "model_cnots", oc.model_cnots, err) ||
        !detail::read_int(o, "emitted_cnots", oc.emitted_cnots, err) ||
        !detail::read_int(o, "model_cost", oc.model_cost, err) ||
        !detail::read_int(o, "device_cost", oc.device_cost, err) ||
        !detail::read_int(o, "routed_swaps", oc.routed_swaps, err) ||
        !detail::read_size(o, "best_restart", oc.best_restart, err) ||
        !detail::read_size(o, "restarts_completed", oc.restarts_completed,
                           err))
      return false;
    if (const json::Value* verified = o.find("verified");
        verified != nullptr && !verified->is_null()) {
      if (!verified->is_bool())
        return detail::fail(err, "outcome.verified must be null or boolean");
      oc.verified = verified->as_bool();
    }
    if (const json::Value* restarts = o.find("restarts");
        restarts != nullptr) {
      if (!restarts->is_array())
        return detail::fail(err, "outcome.restarts must be an array");
      for (const json::Value& rj : restarts->items()) {
        if (!detail::get_object(rj, "restart", err)) return false;
        WireRestart rep;
        if (!detail::read_u64(rj, "seed", rep.seed, err) ||
            !detail::read_int(rj, "model_cnots", rep.model_cnots, err) ||
            !detail::read_int(rj, "model_cost", rep.model_cost, err) ||
            !detail::read_int(rj, "device_cost", rep.device_cost, err) ||
            !detail::read_bool(rj, "completed", rep.completed, err))
          return false;
        oc.restarts.push_back(rep);
      }
    }
    if (const json::Value* circ = o.find("circuit");
        circ != nullptr && !circ->is_null()) {
      if (!circ->is_string())
        return detail::fail(err, "outcome.circuit must be null or hex");
      oc.circuit_hex = circ->as_string();
    }
    out.outcomes.push_back(std::move(oc));
  }
  return true;
}

/// Decodes a wire circuit payload back into a QuantumCircuit (for client
/// display / re-verification). nullopt on malformed hex or bytes.
[[nodiscard]] inline std::optional<circuit::QuantumCircuit>
decode_wire_circuit(std::string_view hex) {
  const std::optional<std::string> bytes = decode_hex(hex);
  if (!bytes.has_value()) return std::nullopt;
  return decode_circuit(*bytes);
}

}  // namespace femto::service::protocol
