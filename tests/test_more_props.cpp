// Additional cross-cutting property tests: simulator override edge cases,
// fault-class categories through the forward engine, analog-suite ATPG
// sanity, and determinism guarantees that the reproducibility story rests
// on.
#include <gtest/gtest.h>

#include "atpg/detengine.h"
#include "fault/faultsim.h"
#include "fault/grading.h"
#include "gen/analogs.h"
#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"
#include "netlist/bench_io.h"

namespace gatpg {
namespace {

using sim::V3;

TEST(SeqSimOverrides, PerSlotMasksAreIndependent) {
  // Same node stuck at 1 in slot 3 and stuck at 0 in slot 7; other slots
  // untouched.
  const auto c = gen::make_s27();
  sim::SequenceSimulator s(c);
  const auto node = c.find("G14");  // NOT(G0)
  s.add_output_override(node, true, 1ULL << 3);
  s.add_output_override(node, false, 1ULL << 7);
  s.apply_vector({V3::k0, V3::k0, V3::k0, V3::k0});  // G14 would be 1
  EXPECT_EQ(s.scalar_value(node, 3), V3::k1);
  EXPECT_EQ(s.scalar_value(node, 7), V3::k0);
  EXPECT_EQ(s.scalar_value(node, 0), V3::k1);
  EXPECT_EQ(s.scalar_value(node, 63), V3::k1);
}

TEST(SeqSimOverrides, LaterOverrideWinsOnSameSlot) {
  const auto c = gen::make_s27();
  sim::SequenceSimulator s(c);
  const auto node = c.find("G14");
  s.add_output_override(node, true, 1ULL << 5);
  s.add_output_override(node, false, 1ULL << 5);  // re-inject opposite
  s.apply_vector({V3::k0, V3::k0, V3::k0, V3::k0});
  EXPECT_EQ(s.scalar_value(node, 5), V3::k0);
}

TEST(SeqSimOverrides, DffInputOverrideOnlyAffectsLatchedValue) {
  const auto c = gen::make_s27();
  sim::SequenceSimulator s(c);
  const auto ff = c.flip_flops()[0];          // G5, D = G10
  const auto d_node = c.fanins(ff)[0];
  s.add_input_override(ff, 0, true, ~0ULL);   // D pin s-a-1
  s.apply_vector({V3::k1, V3::k0, V3::k0, V3::k0});
  // The driver node itself is unaffected (branch fault).
  const V3 driver_value = s.scalar_value(d_node);
  s.clock();
  EXPECT_EQ(s.scalar_value(ff), V3::k1);      // latched the stuck value
  // Re-check driver unchanged by the override.
  sim::SequenceSimulator clean(c);
  clean.apply_vector({V3::k1, V3::k0, V3::k0, V3::k0});
  EXPECT_EQ(driver_value, clean.scalar_value(d_node));
}

TEST(ForwardEngineCategories, SolvesEveryFaultCategoryOnS27) {
  // Exercise each structural fault category: PI stem, gate stem, gate
  // branch, DFF output stem, DFF input pin.
  const auto c = gen::make_s27();
  atpg::SearchLimits limits;
  limits.time_limit_s = 2.0;
  limits.max_backtracks = 20000;
  limits.max_forward_frames = 8;

  std::vector<fault::Fault> cases = {
      {c.find("G0"), fault::kOutputPin, true},        // PI stem
      {c.find("G9"), fault::kOutputPin, false},       // gate stem
      {c.find("G15"), 1, true},                       // gate input branch
      {c.flip_flops()[1], fault::kOutputPin, false},  // DFF output stem
      {c.flip_flops()[2], 0, true},                   // DFF D-pin
  };
  for (const auto& f : cases) {
    atpg::ForwardEngine engine(c, f, limits);
    const auto status = engine.next_solution(util::Deadline::unlimited());
    EXPECT_EQ(status, atpg::ForwardStatus::kSolved) << fault::to_string(c, f);
  }
}

TEST(ForwardEngineCategories, RequiredStateIsMinimal) {
  // Dropping any single required bit from the minimized state must kill the
  // PO detection (otherwise the minimizer left slack).
  const auto c = gen::make_s27();
  atpg::SearchLimits limits;
  limits.time_limit_s = 2.0;
  limits.max_backtracks = 20000;
  for (const auto& f : fault::collapse(c).faults) {
    atpg::ForwardEngine engine(c, f, limits);
    if (engine.next_solution(util::Deadline::unlimited()) !=
        atpg::ForwardStatus::kSolved) {
      continue;
    }
    const auto state = engine.required_state();
    const auto vectors = engine.vectors();
    for (std::size_t drop = 0; drop < state.size(); ++drop) {
      if (state[drop] == V3::kX) continue;
      auto weaker = state;
      weaker[drop] = V3::kX;
      // Re-simulate with the weakened requirement on both machines.
      test::ReferenceSimulator good(c);
      test::ReferenceSimulator bad(c, f);
      good.set_state(weaker);
      bad.set_state(weaker);
      bool detected = false;
      for (const auto& v : vectors) {
        // X bits stay X: this is a 3-valued necessity check, mirroring the
        // minimizer's own semantics.
        const auto gp = good.apply(v);
        const auto bp = bad.apply(v);
        for (std::size_t p = 0; p < gp.size(); ++p) {
          if (gp[p] != V3::kX && bp[p] != V3::kX && gp[p] != bp[p]) {
            detected = true;
          }
        }
        good.clock();
        bad.clock();
      }
      EXPECT_FALSE(detected)
          << fault::to_string(c, f) << ": required bit " << drop
          << " was not actually required";
    }
  }
}

TEST(AnalogSuite, FaultSimSanityOnEveryAnalog) {
  util::Rng rng(2024);
  for (const auto& spec : gen::analog_suite()) {
    if (spec.name == "g5378") continue;  // keep CI fast
    const auto c = gen::make_analog(spec);
    const auto faults = fault::collapse(c).faults;
    // 64 random vectors never detect more than the universe and the count
    // matches an independent re-run (determinism).
    const auto seq = test::random_sequence(c, rng, 64);
    const auto a = fault::grade_sequence(c, faults, seq);
    const auto b = fault::grade_sequence(c, faults, seq);
    EXPECT_EQ(a.detected, b.detected) << spec.name;
    EXPECT_LE(a.detected, faults.size()) << spec.name;
    EXPECT_GT(a.detected, 0u) << spec.name << ": random should catch some";
  }
}

TEST(Registry, CircuitConstructionIsDeterministic) {
  for (const char* name : {"am2910", "pcont2", "g1488"}) {
    const auto a = gen::make_circuit(name);
    const auto b = gen::make_circuit(name);
    ASSERT_EQ(a.node_count(), b.node_count()) << name;
    EXPECT_EQ(netlist::write_bench(a), netlist::write_bench(b)) << name;
  }
}

TEST(Grading, SubsetMonotonicity) {
  // Grading a prefix of a sequence never detects more than the full
  // sequence.
  const auto c = gen::make_circuit("g298");
  util::Rng rng(7);
  const auto seq = test::random_sequence(c, rng, 60);
  const auto faults = fault::collapse(c).faults;
  std::size_t last = 0;
  for (std::size_t len : {10u, 20u, 40u, 60u}) {
    const sim::Sequence prefix(seq.begin(), seq.begin() + len);
    const auto report = fault::grade_sequence(c, faults, prefix);
    EXPECT_GE(report.detected, last);
    last = report.detected;
  }
}

TEST(WhatIf, AgreesWithWouldDetectPerFault) {
  const auto c = gen::make_s27();
  const auto faults = fault::collapse(c).faults;
  fault::FaultSimulator fs(c, faults);
  util::Rng rng(31);
  fs.run(test::random_sequence(c, rng, 3));  // advance session
  const auto probe = test::random_sequence(c, rng, 6);
  std::vector<std::size_t> undetected;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!fs.detected()[i]) undetected.push_back(i);
  }
  unsigned individual = 0;
  for (std::size_t i : undetected) {
    individual += fs.would_detect(i, probe) ? 1 : 0;
  }
  EXPECT_EQ(fs.what_if(undetected, probe).detected, individual);
}

}  // namespace
}  // namespace gatpg
