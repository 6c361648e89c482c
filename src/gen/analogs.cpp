#include "gen/analogs.h"

#include "gen/datapath.h"
#include "gen/fsmgen.h"
#include "util/rng.h"

namespace gatpg::gen {

using netlist::GateType;
using netlist::NodeId;

netlist::Circuit make_analog(const AnalogSpec& spec) {
  netlist::CircuitBuilder b;
  DatapathBuilder d(b);
  util::Rng rng(spec.seed);

  const NodeId reset = b.add_input("reset");
  const Bus pis = d.input_bus("pi", spec.data_inputs);

  // Signal pool: any already-created node is fair game for later blocks,
  // which keeps the construction acyclic by definition.
  std::vector<NodeId> pool(pis.begin(), pis.end());
  auto pick = [&]() { return pool[rng.below(pool.size())]; };

  // FSM blocks.
  unsigned block = 0;
  for (const auto& fb : spec.fsms) {
    FsmSpec fs;
    fs.num_states = fb.states;
    fs.num_inputs = fb.inputs;
    fs.num_outputs = 2;
    fs.seed = rng.word();
    std::vector<NodeId> ins(fs.num_inputs);
    for (auto& in : ins) in = pick();
    const std::string index = std::to_string(block);
    const auto outs = emit_moore_fsm(b, "m" + index + "_", fs, ins, reset);
    pool.insert(pool.end(), outs.begin(), outs.end());
    ++block;
  }

  // Counters: cnt' = !reset & (en ? cnt+1 : cnt).
  const NodeId nreset = d.inv("nrst_c", reset);
  unsigned ci = 0;
  for (unsigned width : spec.counters) {
    const std::string index = std::to_string(ci++);
    const std::string p = "c" + index + "_";
    const Bus cnt = d.register_bus(p, width);
    const NodeId en = pick();
    const auto inc = d.incrementer(p + "inc", cnt, d.const1(p + "one"));
    const Bus stepped = d.mux2(p + "mx", en, inc.sum, cnt);
    d.connect_register(cnt, d.gate_bus(p + "nx", stepped, nreset));
    pool.insert(pool.end(), cnt.begin(), cnt.end());
    pool.push_back(inc.carry_out);
  }

  // Shift registers: serial-in from the pool, no reset (they flush X out
  // naturally, like the scan-path-free pipelines in the s6xx circuits).
  unsigned si = 0;
  for (unsigned width : spec.shifts) {
    const std::string index = std::to_string(si++);
    const std::string p = "s" + index + "_";
    const Bus sh = d.register_bus(p, width);
    b.set_dff_input(sh[0], pick());
    for (unsigned k = 1; k < width; ++k) b.set_dff_input(sh[k], sh[k - 1]);
    pool.insert(pool.end(), sh.begin(), sh.end());
  }

  // Random glue gates.
  static constexpr GateType kGlueTypes[] = {
      GateType::kAnd, GateType::kOr,  GateType::kNand,
      GateType::kNor, GateType::kXor, GateType::kXnor,
  };
  for (unsigned g = 0; g < spec.glue_gates; ++g) {
    const GateType t = kGlueTypes[rng.below(std::size(kGlueTypes))];
    const std::size_t arity = 2 + rng.below(2);  // 2 or 3 inputs
    std::vector<NodeId> ins(arity);
    for (auto& in : ins) in = pick();
    const std::string index = std::to_string(g);
    pool.push_back(b.add_gate(t, "g" + index, ins));
  }

  // Outputs: XOR-mix of pool signals so deep state is observable.
  for (unsigned o = 0; o < spec.outputs; ++o) {
    const NodeId a = pick();
    const NodeId bn = pick();
    b.mark_output(d.xor2("po" + std::to_string(o), a, bn));
  }

  return std::move(b).build(spec.name);
}

const std::vector<AnalogSpec>& analog_suite() {
  static const std::vector<AnalogSpec> kSuite = [] {
    std::vector<AnalogSpec> v;
    // Control-dominant profiles (traffic-light / PLD controllers).
    v.push_back({"g298", 3, 6,
                 {{8, 2}, {8, 2}},
                 {8},
                 {},
                 24,
                 298});
    v.push_back({"g382", 3, 6,
                 {{4, 2}, {4, 2}, {4, 2}},
                 {6, 6},
                 {},
                 40,
                 382});
    v.push_back({"g386", 4, 7, {{13, 3}}, {}, {}, 16, 386});
    v.push_back({"g400", 3, 6,
                 {{4, 2}, {4, 2}, {4, 2}},
                 {6, 6},
                 {},
                 56,
                 400});
    v.push_back({"g444", 3, 6,
                 {{4, 2}, {4, 2}, {4, 2}},
                 {6, 6},
                 {},
                 72,
                 444});
    v.push_back({"g526", 3, 6,
                 {{8, 2}, {8, 2}},
                 {7, 8},
                 {},
                 64,
                 526});
    v.push_back({"g641", 16, 10, {}, {4}, {8, 7}, 160, 641});
    v.push_back({"g713", 16, 10, {}, {4}, {8, 7}, 224, 713});
    v.push_back({"g820", 8, 10, {{24, 3}}, {}, {}, 48, 820});
    v.push_back({"g832", 8, 10, {{24, 3}}, {}, {}, 64, 832});
    v.push_back({"g1196", 12, 14, {}, {}, {6, 6, 6}, 420, 1196});
    v.push_back({"g1238", 12, 14, {}, {}, {6, 6, 6}, 470, 1238});
    v.push_back({"g1423", 12, 5,
                 {{8, 2}, {8, 2}},
                 {16, 16, 12},
                 {12},
                 240,
                 1423});
    v.push_back({"g1488", 6, 12, {{48, 3}}, {}, {}, 64, 1488});
    v.push_back({"g1494", 6, 12, {{48, 3}}, {}, {}, 80, 1494});
    v.push_back({"g5378", 24, 24,
                 {{16, 3}, {16, 3}, {8, 2}, {8, 2}, {8, 2}},
                 {16, 16, 12, 12},
                 {16, 16, 12},
                 700,
                 5378});
    return v;
  }();
  return kSuite;
}

}  // namespace gatpg::gen
