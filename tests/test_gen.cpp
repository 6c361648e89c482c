#include <gtest/gtest.h>

#include "gen/am2910.h"
#include "gen/analogs.h"
#include "gen/divider.h"
#include "gen/fsmgen.h"
#include "gen/multiplier.h"
#include "gen/pcont.h"
#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "netlist/depth.h"
#include "sim/seqsim.h"
#include "util/rng.h"

namespace gatpg::gen {
namespace {

using sim::V3;
using sim::Vector3;
using test::indexed_name;

// ---------- driving helpers ----------

Vector3 bits_vector(const netlist::Circuit& c,
                    const std::vector<std::pair<std::string, unsigned>>& buses,
                    const std::vector<std::pair<std::string, bool>>& scalars) {
  Vector3 v(c.primary_inputs().size(), V3::k0);
  auto set = [&](const std::string& name, bool value) {
    const auto n = c.find(name);
    ASSERT_NE(n, netlist::kNoNode) << name;
    const int idx = c.pi_index(n);
    ASSERT_GE(idx, 0) << name;
    v[static_cast<std::size_t>(idx)] = value ? V3::k1 : V3::k0;
  };
  for (const auto& [prefix, value] : buses) {
    for (unsigned bit = 0; bit < 32; ++bit) {
      const auto n = c.find(prefix + std::to_string(bit));
      if (n == netlist::kNoNode) break;
      const int idx = c.pi_index(n);
      v[static_cast<std::size_t>(idx)] =
          ((value >> bit) & 1) ? V3::k1 : V3::k0;
    }
  }
  for (const auto& [name, value] : scalars) set(name, value);
  return v;
}

unsigned read_bus(const netlist::Circuit& c, const sim::SequenceSimulator& s,
                  const std::string& prefix, unsigned width) {
  unsigned value = 0;
  for (unsigned bit = 0; bit < width; ++bit) {
    const auto n = c.find(prefix + std::to_string(bit));
    EXPECT_NE(n, netlist::kNoNode) << prefix << bit;
    if (s.scalar_value(n) == V3::k1) value |= 1u << bit;
    EXPECT_NE(s.scalar_value(n), V3::kX) << prefix << bit << " is X";
  }
  return value;
}

// ---------- multiplier ----------

int run_multiply(const netlist::Circuit& c, unsigned width, int a, int b) {
  sim::SequenceSimulator s(c);
  const unsigned mask = width >= 32 ? ~0u : (1u << width) - 1;
  // Reset, then start with operands, then run until done.
  s.apply_vector(bits_vector(c, {}, {{"reset", true}, {"start", false}}));
  s.clock();
  s.apply_vector(bits_vector(
      c,
      {{"a", static_cast<unsigned>(a) & mask},
       {"b", static_cast<unsigned>(b) & mask}},
      {{"reset", false}, {"start", true}}));
  s.clock();
  for (unsigned cycle = 0; cycle < width + 2; ++cycle) {
    s.apply_vector(bits_vector(c, {}, {{"reset", false}, {"start", false}}));
    if (s.scalar_value(c.find("done")) == V3::k1) break;
    s.clock();
  }
  EXPECT_EQ(s.scalar_value(c.find("done")), V3::k1);
  const unsigned lo = read_bus(c, s, "p", width);
  const unsigned hi_start = width;
  unsigned hi = 0;
  for (unsigned bit = 0; bit < width; ++bit) {
    if (s.scalar_value(c.find(indexed_name("p", hi_start + bit))) ==
        V3::k1) {
      hi |= 1u << bit;
    }
  }
  const unsigned raw = (hi << width) | lo;
  // Sign-extend the 2W-bit product.
  const unsigned pw = 2 * width;
  int product = static_cast<int>(raw);
  if (pw < 32 && (raw & (1u << (pw - 1)))) {
    product = static_cast<int>(raw | (~0u << pw));
  }
  return product;
}

TEST(Multiplier, ExhaustiveFourBitSigned) {
  const auto c = make_multiplier(4);
  for (int a = -8; a <= 7; ++a) {
    for (int b = -8; b <= 7; ++b) {
      ASSERT_EQ(run_multiply(c, 4, a, b), a * b) << a << " * " << b;
    }
  }
}

TEST(Multiplier, SixteenBitSpotChecks) {
  const auto c = make_multiplier(16);
  const std::pair<int, int> cases[] = {
      {0, 0},     {1, 1},      {-1, 1},   {-1, -1},     {1234, 567},
      {-321, 99}, {100, -250}, {32767, 1}, {-32768, 1}, {181, -181},
  };
  for (const auto& [a, b] : cases) {
    ASSERT_EQ(run_multiply(c, 16, a, b), a * b) << a << " * " << b;
  }
}

TEST(Multiplier, ProfileIsReasonable) {
  const auto c = make_multiplier(16);
  const auto st = netlist::stats_of(c);
  EXPECT_EQ(st.inputs, 2u + 32u);
  EXPECT_EQ(st.outputs, 33u);
  EXPECT_GT(st.flip_flops, 40u);
  EXPECT_GT(st.gates, 300u);
}

// ---------- divider ----------

std::pair<unsigned, unsigned> run_divide(const netlist::Circuit& c,
                                         unsigned width, unsigned a,
                                         unsigned b, unsigned max_cycles) {
  sim::SequenceSimulator s(c);
  s.apply_vector(bits_vector(c, {}, {{"reset", true}, {"start", false}}));
  s.clock();
  s.apply_vector(
      bits_vector(c, {{"a", a}, {"b", b}}, {{"reset", false}, {"start", true}}));
  s.clock();
  for (unsigned cycle = 0; cycle < max_cycles; ++cycle) {
    s.apply_vector(bits_vector(c, {}, {{"reset", false}, {"start", false}}));
    if (s.scalar_value(c.find("done")) == V3::k1) break;
    s.clock();
  }
  EXPECT_EQ(s.scalar_value(c.find("done")), V3::k1) << a << "/" << b;
  return {read_bus(c, s, "q_out", width), read_bus(c, s, "r_out", width)};
}

TEST(Divider, ExhaustiveFourBit) {
  const auto c = make_divider(4);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 1; b < 16; ++b) {
      const auto [q, r] = run_divide(c, 4, a, b, 20);
      ASSERT_EQ(q, a / b) << a << "/" << b;
      ASSERT_EQ(r, a % b) << a << "/" << b;
    }
  }
}

TEST(Divider, DivideByZeroTerminates) {
  const auto c = make_divider(4);
  const auto [q, r] = run_divide(c, 4, 9, 0, 5);
  EXPECT_EQ(q, 0u);
  EXPECT_EQ(r, 9u);
}

TEST(Divider, SixteenBitSpotChecks) {
  const auto c = make_divider(16);
  const std::tuple<unsigned, unsigned> cases[] = {
      {1000, 7}, {65535, 255}, {500, 500}, {3, 10}, {40000, 1999},
  };
  for (const auto& [a, b] : cases) {
    const auto [q, r] = run_divide(c, 16, a, b, a / b + 4);
    ASSERT_EQ(q, a / b) << a << "/" << b;
    ASSERT_EQ(r, a % b) << a << "/" << b;
  }
}

// ---------- Am2910 ----------

struct Am2910Driver {
  explicit Am2910Driver(const netlist::Circuit& circuit)
      : c(circuit), s(circuit) {}

  /// Applies one microinstruction; returns Y before the clock edge.
  unsigned step(Am2910Op op, unsigned d = 0, bool pass = true,
                bool load_r = false, bool ci = true) {
    Vector3 v(c.primary_inputs().size(), V3::k0);
    auto set_bit = [&](const std::string& name, bool value) {
      v[static_cast<std::size_t>(c.pi_index(c.find(name)))] =
          value ? V3::k1 : V3::k0;
    };
    for (unsigned bit = 0; bit < 4; ++bit) {
      set_bit(indexed_name("i", bit),
              (static_cast<unsigned>(op) >> bit) & 1);
    }
    for (unsigned bit = 0; bit < 12; ++bit) {
      set_bit(indexed_name("d", bit), (d >> bit) & 1);
    }
    // pass when ccen_n high or cc_n low.
    set_bit("ccen_n", false);
    set_bit("cc_n", !pass);
    set_bit("rld_n", !load_r);
    set_bit("ci", ci);
    s.apply_vector(v);
    unsigned y = 0;
    for (unsigned bit = 0; bit < 12; ++bit) {
      if (s.scalar_value(c.find(indexed_name("y", bit))) == V3::k1) {
        y |= 1u << bit;
      }
    }
    s.clock();
    return y;
  }

  const netlist::Circuit& c;
  sim::SequenceSimulator s;
};

TEST(Am2910, JzResetsAndContAdvances) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  EXPECT_EQ(drv.step(Am2910Op::kJz), 0u);       // Y = 0, uPC <- 1
  EXPECT_EQ(drv.step(Am2910Op::kCont), 1u);     // Y = uPC = 1
  EXPECT_EQ(drv.step(Am2910Op::kCont), 2u);
  EXPECT_EQ(drv.step(Am2910Op::kCont, 0, true, false, /*ci=*/false), 3u);
  // ci = 0: uPC <- Y, so the address repeats.
  EXPECT_EQ(drv.step(Am2910Op::kCont), 3u);
}

TEST(Am2910, ConditionalJumpTakesDWhenPass) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);
  EXPECT_EQ(drv.step(Am2910Op::kCjp, 0x123, /*pass=*/true), 0x123u);
  EXPECT_EQ(drv.step(Am2910Op::kCont), 0x124u);
  EXPECT_EQ(drv.step(Am2910Op::kCjp, 0x200, /*pass=*/false), 0x125u);
}

TEST(Am2910, SubroutineCallAndReturn) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);             // uPC = 1
  drv.step(Am2910Op::kCont);           // Y=1, uPC=2
  // CJS pass: push uPC (=2+... careful: push pushes the *incremented* PC of
  // the call site, i.e. the current uPC register value).
  EXPECT_EQ(drv.step(Am2910Op::kCjs, 0x40, true), 0x40u);  // call
  EXPECT_EQ(drv.step(Am2910Op::kCont), 0x41u);
  // CRTN pass: return to pushed address.
  const unsigned ret = drv.step(Am2910Op::kCrtn, 0, true);
  EXPECT_EQ(ret, 2u);
}

TEST(Am2910, LoopWithCounter) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);                    // uPC = 1
  drv.step(Am2910Op::kLdct, 2, true);         // R <- 2, uPC = 2
  drv.step(Am2910Op::kPush, 0, false);        // push uPC(=2), fail: no R load
  // RFCT: while R != 0 jump to TOS (=2), decrementing.
  EXPECT_EQ(drv.step(Am2910Op::kRfct), 2u);   // R 2 -> 1
  EXPECT_EQ(drv.step(Am2910Op::kRfct), 2u);   // R 1 -> 0
  // R == 0: fall through to uPC and pop.
  const unsigned fall = drv.step(Am2910Op::kRfct);
  EXPECT_NE(fall, 2u);
}

TEST(Am2910, RldLoadsCounterAnyTime) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);
  drv.step(Am2910Op::kCont, 0x7, true, /*load_r=*/true);  // RLD_n low
  // RPCT with R != 0 jumps to D.
  EXPECT_EQ(drv.step(Am2910Op::kRpct, 0x99), 0x99u);
}

TEST(Am2910, EnableOutputsFollowInstruction) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);
  auto read = [&](const char* name) {
    return drv.s.scalar_value(drv.c.find(name));
  };
  // JMAP: map_n low (0), pl_n high; CJV: vect_n low; CONT: pl_n low.
  drv.step(Am2910Op::kJmap, 0x10);
  // Outputs are combinational on the *current* instruction, so apply and
  // inspect before clocking.
  sim::Vector3 v(drv.c.primary_inputs().size(), V3::k0);
  auto set_op = [&](Am2910Op op) {
    for (unsigned bit = 0; bit < 4; ++bit) {
      v[static_cast<std::size_t>(
          drv.c.pi_index(drv.c.find(indexed_name("i", bit))))] =
          ((static_cast<unsigned>(op) >> bit) & 1) ? V3::k1 : V3::k0;
    }
  };
  set_op(Am2910Op::kJmap);
  drv.s.apply_vector(v);
  EXPECT_EQ(read("map_n"), V3::k0);
  EXPECT_EQ(read("vect_n"), V3::k1);
  EXPECT_EQ(read("pl_n"), V3::k1);
  set_op(Am2910Op::kCjv);
  drv.s.apply_vector(v);
  EXPECT_EQ(read("map_n"), V3::k1);
  EXPECT_EQ(read("vect_n"), V3::k0);
  EXPECT_EQ(read("pl_n"), V3::k1);
  set_op(Am2910Op::kCont);
  drv.s.apply_vector(v);
  EXPECT_EQ(read("map_n"), V3::k1);
  EXPECT_EQ(read("vect_n"), V3::k1);
  EXPECT_EQ(read("pl_n"), V3::k0);
}

TEST(Am2910, StackFillsAndReportsFull) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);
  auto full_n = [&] {
    return drv.s.scalar_value(drv.c.find("full_n"));
  };
  for (int push = 0; push < 5; ++push) {
    EXPECT_EQ(full_n(), V3::k1) << "push " << push;
    drv.step(Am2910Op::kPush, 0, false);
  }
  // After five pushes the stack is full.
  drv.step(Am2910Op::kCont);
  EXPECT_EQ(full_n(), V3::k0);
  // A sixth push must not corrupt the pointer: popping five times returns
  // to empty.
  drv.step(Am2910Op::kPush, 0, false);
  for (int pop = 0; pop < 5; ++pop) {
    drv.step(Am2910Op::kCrtn, 0, true);
  }
  drv.step(Am2910Op::kCont);
  EXPECT_EQ(full_n(), V3::k1);
}

TEST(Am2910, PopOnEmptyStackHolds) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);
  // CRTN pass with empty stack: SP must stay 0 (no underflow wraparound to
  // "full").
  drv.step(Am2910Op::kCrtn, 0, true);
  drv.step(Am2910Op::kCrtn, 0, true);
  EXPECT_EQ(drv.s.scalar_value(drv.c.find("full_n")), V3::k1);
}

TEST(Am2910, TwbThreeWayBranch) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);                   // uPC = 1
  drv.step(Am2910Op::kLdct, 1, true);        // R <- 1, uPC = 2
  drv.step(Am2910Op::kPush, 0, false);       // TOS = 2, uPC = 3
  // TWB fail, R = 1 != 0: loop to TOS, decrement.
  EXPECT_EQ(drv.step(Am2910Op::kTwb, 0x70, false), 2u);
  // TWB fail, R = 0: exit via D, pop.
  EXPECT_EQ(drv.step(Am2910Op::kTwb, 0x70, false), 0x70u);
  // TWB pass: continue via uPC.
  const unsigned y = drv.step(Am2910Op::kTwb, 0x70, true);
  EXPECT_NE(y, 0x70u);
}

TEST(Am2910, JsrpSelectsRegisterOnFail) {
  const auto c = make_am2910();
  Am2910Driver drv(c);
  drv.step(Am2910Op::kJz);
  drv.step(Am2910Op::kLdct, 0x2A, true);     // R <- 0x2A
  EXPECT_EQ(drv.step(Am2910Op::kJsrp, 0x99, false), 0x2Au);  // fail -> R
  drv.step(Am2910Op::kJz);
  drv.step(Am2910Op::kLdct, 0x2A, true);
  EXPECT_EQ(drv.step(Am2910Op::kJsrp, 0x99, true), 0x99u);   // pass -> D
}

TEST(Am2910, ProfileMatchesArchitecture) {
  const auto c = make_am2910();
  const auto st = netlist::stats_of(c);
  EXPECT_EQ(st.inputs, 4u + 12u + 4u);
  EXPECT_EQ(st.flip_flops, 12u + 12u + 3u + 5u * 12u);
  EXPECT_EQ(st.outputs, 12u + 4u);
  EXPECT_GT(st.gates, 500u);
}

// ---------- pcont ----------

TEST(Pcont, GrantsHighestPriorityRequest) {
  const auto c = make_pcont();
  sim::SequenceSimulator s(c);
  s.apply_vector(bits_vector(c, {}, {{"reset", true}}));
  s.clock();
  // Configure a duration and request channels 2 and 5; channel 2 must win.
  s.apply_vector(bits_vector(c, {{"dur", 1}},
                             {{"reset", false}, {"cfg", true},
                              {"req2", true}, {"req5", true}}));
  s.clock();  // requests latch into pend, dur_reg written
  s.apply_vector(bits_vector(c, {}, {{"reset", false}}));
  s.clock();  // grant -> active
  EXPECT_EQ(s.scalar_value(c.find("ack2")), V3::k1);
  EXPECT_EQ(s.scalar_value(c.find("ack5")), V3::k0);
  EXPECT_EQ(s.scalar_value(c.find("busy")), V3::k1);
}

TEST(Pcont, GrantEventuallyReleases) {
  // Grant duration is phase-dependent but bounded by 2^timer_bits; the
  // channel must activate and then release within that bound.
  const auto c = make_pcont();
  sim::SequenceSimulator s(c);
  s.apply_vector(bits_vector(c, {}, {{"reset", true}}));
  s.clock();
  s.apply_vector(bits_vector(c, {{"dur", 3}},
                             {{"reset", false}, {"cfg", true},
                              {"req0", true}}));
  s.clock();
  bool activated = false, released = false;
  int active_cycles = 0;
  for (int cycle = 0; cycle < 24 && !released; ++cycle) {
    s.apply_vector(bits_vector(c, {}, {{"reset", false}}));
    const bool on = s.scalar_value(c.find("ack0")) == V3::k1;
    if (on) {
      activated = true;
      ++active_cycles;
      EXPECT_EQ(s.scalar_value(c.find("busy")), V3::k1);
    } else if (activated) {
      released = true;
    }
    s.clock();
  }
  EXPECT_TRUE(activated);
  EXPECT_TRUE(released);
  EXPECT_GE(active_cycles, 1);
  EXPECT_LE(active_cycles, 17);
}

TEST(Pcont, SecondChannelRunsAfterFirstFinishes) {
  const auto c = make_pcont();
  sim::SequenceSimulator s(c);
  s.apply_vector(bits_vector(c, {}, {{"reset", true}}));
  s.clock();
  s.apply_vector(bits_vector(c, {{"dur", 1}},
                             {{"reset", false}, {"cfg", true},
                              {"req1", true}, {"req4", true}}));
  s.clock();
  bool saw4 = false;
  for (int cycle = 0; cycle < 40; ++cycle) {
    s.apply_vector(bits_vector(c, {}, {{"reset", false}}));
    if (s.scalar_value(c.find("ack4")) == V3::k1) {
      saw4 = true;
      EXPECT_EQ(s.scalar_value(c.find("ack1")), V3::k0)
          << "mutual exclusion violated";
    }
    s.clock();
  }
  EXPECT_TRUE(saw4);
}

TEST(Pcont, PrescalerFreeRunsAfterReset) {
  const auto c = make_pcont();
  sim::SequenceSimulator s(c);
  s.apply_vector(bits_vector(c, {}, {{"reset", true}}));
  s.clock();
  // phase = top prescaler bit: toggles with a known period (2^(bits+1)).
  int transitions = 0;
  V3 last = s.scalar_value(c.find("phase"));
  for (int cycle = 0; cycle < 140; ++cycle) {
    s.apply_vector(bits_vector(c, {}, {{"reset", false}}));
    const V3 now = s.scalar_value(c.find("phase"));
    if (now != last) ++transitions;
    last = now;
    s.clock();
  }
  EXPECT_GE(transitions, 2);  // 6-bit prescaler: period 64, toggles at 32
}

// ---------- FSM generator ----------

TEST(FsmGen, BehaviourMatchesTables) {
  FsmSpec spec;
  spec.num_states = 11;
  spec.num_inputs = 2;
  spec.num_outputs = 3;
  spec.seed = 77;
  spec.name = "fsm_check";
  const auto c = make_moore_fsm(spec);
  const FsmTables tables = fsm_tables(spec);

  sim::SequenceSimulator s(c);
  util::Rng rng(5);
  // Reset to state 0, then walk randomly and predict outputs/states.
  Vector3 v(c.primary_inputs().size(), V3::k0);
  v[0] = V3::k1;  // reset
  s.apply_vector(v);
  s.clock();
  unsigned state = 0;
  for (int step = 0; step < 40; ++step) {
    const unsigned iv = static_cast<unsigned>(rng.below(4));
    Vector3 in(c.primary_inputs().size(), V3::k0);
    in[1] = iv & 1 ? V3::k1 : V3::k0;
    in[2] = iv & 2 ? V3::k1 : V3::k0;
    s.apply_vector(in);
    for (unsigned k = 0; k < spec.num_outputs; ++k) {
      const auto out = c.find(indexed_name("out", k));
      ASSERT_EQ(s.scalar_value(out),
                tables.outputs[state][k] ? V3::k1 : V3::k0)
          << "state " << state << " output " << k;
    }
    s.clock();
    state = tables.next_state[state][iv];
  }
}

TEST(FsmGen, RejectsBadSpecs) {
  FsmSpec spec;
  spec.num_states = 1;
  EXPECT_THROW(make_moore_fsm(spec), std::invalid_argument);
  spec.num_states = 8;
  spec.num_inputs = 6;
  EXPECT_THROW(make_moore_fsm(spec), std::invalid_argument);
}

// ---------- analogs & registry ----------

TEST(Analogs, SuiteBuildsWithSaneProfiles) {
  for (const AnalogSpec& spec : analog_suite()) {
    const auto c = make_analog(spec);
    const auto st = netlist::stats_of(c);
    EXPECT_GT(st.flip_flops, 0u) << spec.name;
    EXPECT_GT(st.gates, 20u) << spec.name;
    EXPECT_EQ(st.inputs, spec.data_inputs + 1) << spec.name;  // + reset
    EXPECT_EQ(st.outputs, spec.outputs) << spec.name;
    EXPECT_GE(netlist::sequential_depth(c), 1u) << spec.name;
  }
}

TEST(Analogs, DeterministicConstruction) {
  const auto& spec = analog_suite().front();
  const auto c1 = make_analog(spec);
  const auto c2 = make_analog(spec);
  EXPECT_EQ(c1.node_count(), c2.node_count());
  for (netlist::NodeId n = 0; n < c1.node_count(); ++n) {
    EXPECT_EQ(c1.name(n), c2.name(n));
    EXPECT_EQ(c1.type(n), c2.type(n));
  }
}

TEST(Registry, AllNamesBuild) {
  for (const std::string& name : registry_names()) {
    EXPECT_NO_THROW(make_circuit(name)) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_circuit("nonexistent"), std::out_of_range);
}

TEST(Registry, ContainsPaperSuites) {
  const auto names = registry_names();
  auto has = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("s27"));
  EXPECT_TRUE(has("g298"));
  EXPECT_TRUE(has("g1494"));
  EXPECT_TRUE(has("am2910"));
  EXPECT_TRUE(has("div16"));
  EXPECT_TRUE(has("mult16"));
  EXPECT_TRUE(has("pcont2"));
}

}  // namespace
}  // namespace gatpg::gen
