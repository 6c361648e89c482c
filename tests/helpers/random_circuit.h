// Seeded random circuit generation for property-based tests.
//
// Circuits are built bottom-up over a signal pool, so they are valid by
// construction (acyclic combinational logic, bound DFF inputs).  The same
// seed always yields the same circuit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/builder.h"
#include "sim/seqsim.h"
#include "util/rng.h"

namespace gatpg::test {

struct RandomCircuitSpec {
  std::size_t num_inputs = 4;
  std::size_t num_ffs = 3;
  std::size_t num_gates = 30;
  std::size_t num_outputs = 3;
  std::uint64_t seed = 1;
};

/// `prefix` followed by the decimal `index` ("g12").  Appends instead of
/// `prefix + std::to_string(index)`, whose inlined insert GCC 12 flags with
/// a false -Wrestrict at -O3.
inline std::string indexed_name(const char* prefix, std::uint64_t index) {
  return std::string(prefix).append(std::to_string(index));
}

inline netlist::Circuit make_random_circuit(const RandomCircuitSpec& spec) {
  using netlist::GateType;
  using netlist::NodeId;
  util::Rng rng(spec.seed);
  netlist::CircuitBuilder b;

  std::vector<NodeId> pool;
  for (std::size_t i = 0; i < spec.num_inputs; ++i) {
    pool.push_back(b.add_input(indexed_name("pi", i)));
  }
  std::vector<NodeId> ffs;
  for (std::size_t i = 0; i < spec.num_ffs; ++i) {
    const NodeId q = b.add_dff(indexed_name("ff", i));
    ffs.push_back(q);
    pool.push_back(q);
  }

  static constexpr GateType kTypes[] = {
      GateType::kAnd, GateType::kOr,   GateType::kNand, GateType::kNor,
      GateType::kXor, GateType::kXnor, GateType::kNot,  GateType::kBuf,
  };
  for (std::size_t g = 0; g < spec.num_gates; ++g) {
    const GateType t = kTypes[rng.below(std::size(kTypes))];
    const bool unary = t == GateType::kNot || t == GateType::kBuf;
    const std::size_t arity = unary ? 1 : 2 + rng.below(3);  // 2..4
    std::vector<NodeId> ins(arity);
    for (auto& in : ins) in = pool[rng.below(pool.size())];
    pool.push_back(b.add_gate(t, indexed_name("g", g), ins));
  }

  for (NodeId q : ffs) {
    b.set_dff_input(q, pool[rng.below(pool.size())]);
  }
  for (std::size_t o = 0; o < spec.num_outputs; ++o) {
    b.mark_output(pool[pool.size() - 1 - (o % pool.size())]);
  }
  return std::move(b).build(indexed_name("rand", spec.seed));
}

/// Random ternary input vector (X with probability x_prob).
inline sim::Vector3 random_vector(const netlist::Circuit& c, util::Rng& rng,
                                  double x_prob = 0.0) {
  sim::Vector3 v(c.primary_inputs().size());
  for (auto& bit : v) {
    if (rng.chance(x_prob)) {
      bit = sim::V3::kX;
    } else {
      bit = rng.bit() ? sim::V3::k1 : sim::V3::k0;
    }
  }
  return v;
}

inline sim::Sequence random_sequence(const netlist::Circuit& c,
                                     util::Rng& rng, std::size_t length,
                                     double x_prob = 0.0) {
  sim::Sequence seq(length);
  for (auto& v : seq) v = random_vector(c, rng, x_prob);
  return seq;
}

}  // namespace gatpg::test
