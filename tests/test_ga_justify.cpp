#include <gtest/gtest.h>

#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"
#include "hybrid/ga_justify.h"

namespace gatpg::hybrid {
namespace {

using sim::State3;
using sim::V3;

GaJustifyConfig config(unsigned seq_len = 8, std::uint64_t seed = 1) {
  GaJustifyConfig c;
  c.population = 64;
  c.generations = 8;
  c.sequence_length = seq_len;
  c.seed = seed;
  return c;
}

fault::Fault benign_fault(const netlist::Circuit& c) {
  // A fault far from the state logic keeps the faulty machine behaving like
  // the good one for state purposes.
  return {c.primary_outputs()[0], fault::kOutputPin, false};
}

TEST(GaStateJustifier, FindsReachableState) {
  const auto c = gen::make_s27();
  // Find a genuinely reachable state first.
  util::Rng rng(5);
  test::ReferenceSimulator ref(c);
  for (const auto& v : test::random_sequence(c, rng, 6)) {
    ref.apply(v);
    ref.clock();
  }
  const State3 target = ref.state();
  const State3 all_x(3, V3::kX);

  GaStateJustifier justifier(c);
  const auto result = justifier.justify(benign_fault(c), target, all_x,
                                        all_x, config(),
                                        util::Deadline::unlimited());
  ASSERT_TRUE(result.success);

  // Verify the sequence independently on the good machine.
  test::ReferenceSimulator check(c);
  for (const auto& v : result.sequence) {
    check.apply(v);
    check.clock();
  }
  const State3 reached = check.state();
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (target[i] != V3::kX) {
      EXPECT_EQ(reached[i], target[i]);
    }
  }
}

TEST(GaStateJustifier, SequencesAreBinary) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  const auto result = justifier.justify(
      benign_fault(c), {V3::k0, V3::kX, V3::kX}, all_x, all_x, config(),
      util::Deadline::unlimited());
  if (result.success) {
    for (const auto& v : result.sequence) {
      for (V3 bit : v) EXPECT_NE(bit, V3::kX);
    }
    EXPECT_LE(result.sequence.size(), config().sequence_length);
  }
}

TEST(GaStateJustifier, EarlyExitReturnsShortestObservedPrefix) {
  // Target the all-X-matching state: matched after the first vector.
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  const auto result =
      justifier.justify(benign_fault(c), all_x, all_x, all_x, config(),
                        util::Deadline::unlimited());
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.sequence.size(), 1u);
}

TEST(GaStateJustifier, HonorsFaultyMachineGoal) {
  // Faulty target on a flip-flop forced by the fault itself: a DFF output
  // stem s-a-1 fault pins the faulty machine's first flip-flop at 1, so a
  // faulty-target of 0 there can never match, while 1 always does.
  const auto c = gen::make_s27();
  const auto ff0 = c.flip_flops()[0];
  const fault::Fault f{ff0, fault::kOutputPin, true};
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);

  State3 impossible(3, V3::kX);
  impossible[0] = V3::k0;
  const auto bad = justifier.justify(f, all_x, impossible, all_x, config(),
                                     util::Deadline::unlimited());
  EXPECT_FALSE(bad.success);

  State3 forced(3, V3::kX);
  forced[0] = V3::k1;
  const auto good = justifier.justify(f, all_x, forced, all_x, config(),
                                      util::Deadline::unlimited());
  EXPECT_TRUE(good.success);
}

TEST(GaStateJustifier, UsesCurrentGoodState) {
  // With the good machine already in the target state and an all-X faulty
  // target, the first vector trivially "matches" only if the state is
  // preserved; pick a target the current state satisfies after one step by
  // checking success is at least not worse than from all-X.
  const auto c = gen::make_s27();
  util::Rng rng(7);
  test::ReferenceSimulator ref(c);
  for (const auto& v : test::random_sequence(c, rng, 4)) {
    ref.apply(v);
    ref.clock();
  }
  const State3 current = ref.state();
  bool defined = false;
  for (V3 v : current) defined |= v != V3::kX;
  ASSERT_TRUE(defined);

  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  // Reaching `current` again from `current` should be easy (many FSM states
  // are revisitable); from all-X it may be harder.  We only require the
  // current-state run to succeed.
  const auto from_current =
      justifier.justify(benign_fault(c), current, all_x, current,
                        config(12, 9), util::Deadline::unlimited());
  EXPECT_TRUE(from_current.success);
}

TEST(GaStateJustifier, RespectsDeadline) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  State3 unreachable(3, V3::k1);  // may or may not be reachable; the point
                                  // is the expired deadline stops the GA
  const auto expired = util::Deadline::after_seconds(1e-9);
  while (!expired.expired()) {
  }
  const auto result = justifier.justify(benign_fault(c), unreachable,
                                        unreachable, all_x, config(), expired);
  EXPECT_LE(result.generations_run, 1u);
}

TEST(GaStateJustifier, RejectsBadPopulation) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  GaJustifyConfig cfg = config();
  cfg.population = 50;  // not a multiple of 64
  const State3 all_x(3, V3::kX);
  EXPECT_THROW(justifier.justify(benign_fault(c), all_x, all_x, all_x, cfg,
                                 util::Deadline::unlimited()),
               std::invalid_argument);
}

TEST(GaStateJustifier, DeterministicPerSeed) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  State3 target(3, V3::kX);
  target[1] = V3::k1;
  const auto a = justifier.justify(benign_fault(c), target, all_x, all_x,
                                   config(8, 33), util::Deadline::unlimited());
  const auto b = justifier.justify(benign_fault(c), target, all_x, all_x,
                                   config(8, 33), util::Deadline::unlimited());
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

TEST(GaStateJustifier, PopulationOf128RunsTwoBatches) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  GaJustifyConfig cfg = config();
  cfg.population = 128;
  cfg.generations = 2;
  const State3 all_x(3, V3::kX);
  State3 target(3, V3::k1);
  const auto result = justifier.justify(benign_fault(c), target, all_x, all_x,
                                        cfg, util::Deadline::unlimited());
  if (!result.success) {
    EXPECT_EQ(result.evaluations, 256u);  // 128 x 2 generations
  }
}

}  // namespace
}  // namespace gatpg::hybrid
