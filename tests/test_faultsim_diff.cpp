// The PROOFS fault simulator against the independent full-sweep reference.
//
// The engine (good-machine seeding + excitation screening + dynamic
// repacking) must reproduce tests/helpers/reference_sim.h's session model —
// a scalar full sweep that runs every undetected fault on its own
// good/faulty machine pair over every vector — exactly: same detections,
// same detection *order*, same persisted faulty flip-flop states, same
// good-machine state, same what-if counts — across randomized circuits,
// every registry circuit, fault counts that leave a partial last group,
// random (including partially-X) sequences, multi-run sessions, any window
// size, and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "helpers/faultsim_oracle.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"

namespace {

using namespace gatpg;
using fault::FaultSimConfig;
using fault::FaultSimulator;

FaultSimConfig make_config(unsigned threads, unsigned window = 32) {
  FaultSimConfig config;
  config.parallel.threads = threads;
  config.window = window;
  return config;
}

std::vector<test::RandomCircuitSpec> specs() {
  std::vector<test::RandomCircuitSpec> out;
  out.push_back({4, 3, 30, 3, 11});
  out.push_back({6, 5, 90, 4, 22});
  out.push_back({8, 8, 160, 6, 33});
  out.push_back({5, 0, 40, 3, 44});  // purely combinational (no flip-flops)
  return out;
}

/// A session of several run() extensions with varying X density, exercising
/// state persistence, fault dropping, and cross-window behaviour.
std::vector<sim::Sequence> session_chunks(const netlist::Circuit& c,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  return {test::random_sequence(c, rng, 17, 0.0),
          test::random_sequence(c, rng, 9, 0.25),
          test::random_sequence(c, rng, 41, 0.1)};
}

TEST(FaultSimDiff, MatchesFullSweepSerial) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    test::expect_sessions_match_reference(c, faults,
                                          session_chunks(c, spec.seed),
                                          {make_config(1)});
  }
}

TEST(FaultSimDiff, MatchesFullSweepThreaded) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    test::expect_sessions_match_reference(c, faults,
                                          session_chunks(c, spec.seed),
                                          {make_config(4)});
  }
}

TEST(FaultSimDiff, ThreadCountIndependent) {
  // Serial and threaded sessions both equal the reference, hence each other.
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    test::expect_sessions_match_reference(
        c, faults, session_chunks(c, spec.seed + 1),
        {make_config(1), make_config(2), make_config(4)});
  }
  // Fault counts that are not multiples of 64: 3 leaves a single partial
  // group, 70 spills six faults into a second one.
  const test::RandomCircuitSpec spec{8, 8, 160, 6, 66};
  const auto c = test::make_random_circuit(spec);
  const auto all = fault::collapse(c).faults;
  for (const std::size_t count : {std::size_t{3}, std::size_t{70}}) {
    ASSERT_GE(all.size(), count);
    const std::vector<fault::Fault> subset(all.begin(), all.begin() + count);
    test::expect_sessions_match_reference(
        c, subset, session_chunks(c, spec.seed + count),
        {make_config(1), make_config(2), make_config(4)});
  }
}

TEST(FaultSimDiff, EveryRegistryCircuit) {
  // One bounded session per registry circuit: a sampled fault subset
  // (deliberately not a multiple of 64) over a short mixed-X sequence,
  // serial and threaded, against the reference session model.
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const auto c = gen::make_circuit(name);
    const auto all = fault::collapse(c).faults;
    // Sample <= 97 faults, stride-spread across the circuit.
    const std::size_t target = std::min<std::size_t>(all.size(), 97);
    const std::size_t stride = all.size() / target ? all.size() / target : 1;
    std::vector<fault::Fault> faults;
    for (std::size_t i = 0; i < all.size() && faults.size() < target;
         i += stride) {
      faults.push_back(all[i]);
    }
    util::Rng rng(std::hash<std::string>{}(name));
    const std::vector<sim::Sequence> chunks = {
        test::random_sequence(c, rng, 8, 0.0),
        test::random_sequence(c, rng, 6, 0.2)};
    test::expect_sessions_match_reference(c, faults, chunks,
                                          {make_config(1), make_config(4)});
  }
}

TEST(FaultSimDiff, WindowIndependent) {
  // Window boundaries decide when repacking happens and how much of the good
  // machine is recorded at once; none of it may show in the results.
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 7};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;
  test::expect_sessions_match_reference(
      c, faults, session_chunks(c, 99),
      {make_config(2, 1), make_config(2, 2), make_config(2, 7),
       make_config(2, 64)});
}

TEST(FaultSimDiff, WhatIfMatchesFullSweepAndKeepsSessionIntact) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    FaultSimulator fs(c, faults, make_config(4));
    test::ReferenceFaultSession ref(c, faults);

    // Advance both sessions so what_if starts from a nontrivial state.
    util::Rng rng(spec.seed + 5);
    const auto warmup = test::random_sequence(c, rng, 13, 0.1);
    ASSERT_EQ(fs.run(warmup), ref.run(warmup).detected);

    std::vector<std::size_t> all(faults.size());
    std::iota(all.begin(), all.end(), 0);
    const auto probe = test::random_sequence(c, rng, 21, 0.15);

    const auto wa = fs.what_if(all, probe);
    const auto wb = ref.what_if(all, probe);
    EXPECT_EQ(wa.detected, wb.detected);
    EXPECT_EQ(wa.state_effects, wb.state_effects);

    // Subset query (the GA's sampled-fault fitness shape).
    const std::vector<std::size_t> subset(
        all.begin(), all.begin() + std::min<std::size_t>(all.size(), 7));
    const auto sa = fs.what_if(subset, probe);
    const auto sb = ref.what_if(subset, probe);
    EXPECT_EQ(sa.detected, sb.detected);
    EXPECT_EQ(sa.state_effects, sb.state_effects);

    // what_if must not have touched the session: continuing it still
    // matches the reference's detections and states.
    const auto more = test::random_sequence(c, rng, 11, 0.0);
    const test::ReferenceChunk next = ref.run(more);
    EXPECT_EQ(fs.run(more), next.detected);
    EXPECT_EQ(fs.good_state(), next.good_state);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(fs.fault_state(i), next.fault_states[i]);
    }
  }
}

TEST(FaultSimDiff, StatsAreDeterministicAndConsistent) {
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 13};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;

  auto run_session = [&](unsigned threads) {
    FaultSimulator fs(c, faults, make_config(threads, 8));
    for (const auto& chunk : session_chunks(c, 42)) fs.run(chunk);
    return fs.stats();
  };
  const auto s1 = run_session(1);
  const auto s4 = run_session(4);

  // All counters are exactly thread-count-independent.
  EXPECT_EQ(s1.gate_evals, s4.gate_evals);
  EXPECT_EQ(s1.good_gate_evals, s4.good_gate_evals);
  EXPECT_EQ(s1.frames, s4.frames);
  EXPECT_EQ(s1.group_vectors, s4.group_vectors);
  EXPECT_EQ(s1.group_vectors_skipped, s4.group_vectors_skipped);
  EXPECT_EQ(s1.groups_repacked, s4.groups_repacked);

  EXPECT_GT(s1.gate_evals, 0u);
  EXPECT_GT(s1.good_gate_evals, 0u);
  EXPECT_EQ(s1.frames, 17u + 9u + 41u);
  EXPECT_LE(s1.group_vectors_skipped, s1.group_vectors);
  EXPECT_GE(s1.skip_rate(), 0.0);
  EXPECT_LE(s1.skip_rate(), 1.0);

  // reset_stats clears everything.
  FaultSimulator fs(c, faults);
  fs.run(session_chunks(c, 42)[0]);
  EXPECT_GT(fs.stats().gate_evals + fs.stats().good_gate_evals, 0u);
  fs.reset_stats();
  EXPECT_EQ(fs.stats().gate_evals, 0u);
  EXPECT_EQ(fs.stats().frames, 0u);
}

TEST(FaultSimDiff, ScreenSkipsUnexcitedFaults) {
  // g = AND(a, b) stuck-at-1: while a = b = 1 the good value equals the
  // stuck value, nothing is excited and no fault effect is parked, so the
  // screen must skip every vector without a single faulty-machine gate
  // evaluation.  Dropping b to 0 excites the fault and detects it.
  netlist::CircuitBuilder builder;
  const auto a = builder.add_input("a");
  const auto b = builder.add_input("b");
  const auto g = builder.add_gate(netlist::GateType::kAnd, "g", {a, b});
  builder.mark_output(g);
  const auto c = std::move(builder).build("screen");

  const std::vector<fault::Fault> faults{{g, fault::kOutputPin, true}};
  FaultSimulator fs(c, faults, make_config(1));

  const sim::Sequence quiet(6, sim::Vector3{sim::V3::k1, sim::V3::k1});
  EXPECT_TRUE(fs.run(quiet).empty());
  EXPECT_EQ(fs.stats().group_vectors, 6u);
  EXPECT_EQ(fs.stats().group_vectors_skipped, 6u);
  EXPECT_EQ(fs.stats().gate_evals, 0u);

  const sim::Sequence excite(1, sim::Vector3{sim::V3::k1, sim::V3::k0});
  EXPECT_EQ(fs.run(excite).size(), 1u);
}

}  // namespace
