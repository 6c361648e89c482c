#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "atpg/justify.h"
#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"
#include "sim/seqsim.h"

namespace gatpg::atpg {
namespace {

using sim::State3;
using sim::V3;

SearchLimits limits() {
  SearchLimits l;
  l.time_limit_s = 5.0;
  l.max_backtracks = 50000;
  l.max_justify_depth = 16;
  return l;
}

/// Verifies a justification sequence: from the all-X state, after applying
/// the (X-filled) sequence, every required flip-flop holds its target value.
void expect_justifies(const netlist::Circuit& c, const State3& target,
                      sim::Sequence seq) {
  for (auto& v : seq) {
    for (auto& bit : v) {
      if (bit == V3::kX) bit = V3::k0;
    }
  }
  test::ReferenceSimulator ref(c);
  for (const auto& v : seq) {
    ref.apply(v);
    ref.clock();
  }
  const State3 reached = ref.state();
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (target[i] != V3::kX) {
      EXPECT_EQ(reached[i], target[i]) << "flip-flop " << i;
    }
  }
}

TEST(DeterministicJustifier, AllXTargetIsTrivial) {
  const auto c = gen::make_s27();
  DeterministicJustifier j(c, limits());
  const auto out = j.justify(State3(3, V3::kX), util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kJustified);
  EXPECT_TRUE(out.sequence.empty());
}

TEST(DeterministicJustifier, JustifiesSingleBitTargets) {
  const auto c = gen::make_s27();
  DeterministicJustifier j(c, limits());
  for (std::size_t ff = 0; ff < 3; ++ff) {
    for (V3 v : {V3::k0, V3::k1}) {
      State3 target(3, V3::kX);
      target[ff] = v;
      const auto out = j.justify(target, util::Deadline::unlimited());
      if (out.status == DeterministicJustifier::Status::kJustified) {
        expect_justifies(c, target, out.sequence);
      } else {
        // s27 state bits are all individually reachable; only full search
        // exhaustion may say otherwise, and it must not on this circuit.
        ADD_FAILURE() << "ff " << ff << " value " << sim::v3_char(v)
                      << " not justified";
      }
    }
  }
}

TEST(DeterministicJustifier, ProvesUnreachableStateUnjustifiable) {
  // ff1 and ff2 both latch the same signal, so (0, 1) is unreachable.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto f1 = b.add_dff("f1");
  const auto f2 = b.add_dff("f2");
  const auto buf = b.add_gate(netlist::GateType::kBuf, "s", {a});
  b.set_dff_input(f1, buf);
  b.set_dff_input(f2, buf);
  b.mark_output(b.add_gate(netlist::GateType::kXor, "y", {f1, f2}));
  const auto c = std::move(b).build("twin");
  DeterministicJustifier j(c, limits());
  const auto out =
      j.justify({V3::k0, V3::k1}, util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kUnjustifiable);
  // And the reachable combination is justified.
  const auto ok = j.justify({V3::k1, V3::k1}, util::Deadline::unlimited());
  ASSERT_EQ(ok.status, DeterministicJustifier::Status::kJustified);
  expect_justifies(c, {V3::k1, V3::k1}, ok.sequence);
}

TEST(DeterministicJustifier, MultiFrameChainNeedsDeepSequence) {
  // PI -> f0 -> f1 -> f2: justifying f2 = 1 needs three frames.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto f0 = b.add_dff("f0");
  const auto f1 = b.add_dff("f1");
  const auto f2 = b.add_dff("f2");
  b.set_dff_input(f0, b.add_gate(netlist::GateType::kBuf, "b0", {a}));
  b.set_dff_input(f1, b.add_gate(netlist::GateType::kBuf, "b1", {f0}));
  b.set_dff_input(f2, b.add_gate(netlist::GateType::kBuf, "b2", {f1}));
  b.mark_output(f2);
  const auto c = std::move(b).build("chain3");
  DeterministicJustifier j(c, limits());
  const auto out = j.justify({V3::kX, V3::kX, V3::k1},
                             util::Deadline::unlimited());
  ASSERT_EQ(out.status, DeterministicJustifier::Status::kJustified);
  EXPECT_EQ(out.sequence.size(), 3u);
  expect_justifies(c, {V3::kX, V3::kX, V3::k1}, out.sequence);
}

TEST(DeterministicJustifier, DepthLimitAbortsInsteadOfLying) {
  // Same chain, but a depth limit of 1 cannot reach f2.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto f0 = b.add_dff("f0");
  const auto f1 = b.add_dff("f1");
  b.set_dff_input(f0, b.add_gate(netlist::GateType::kBuf, "b0", {a}));
  b.set_dff_input(f1, b.add_gate(netlist::GateType::kBuf, "b1", {f0}));
  b.mark_output(f1);
  const auto c = std::move(b).build("chain2");
  SearchLimits shallow = limits();
  shallow.max_justify_depth = 1;
  DeterministicJustifier j(c, shallow);
  const auto out =
      j.justify({V3::kX, V3::k1}, util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kAborted);
}

TEST(DeterministicJustifier, CyclePruningTerminates) {
  // A free-running inverter loop: ff <- NOT ff with no inputs driving it.
  // Any specific value is unjustifiable from the all-X state, and the
  // requirement cycle must terminate the search rather than hang.
  netlist::CircuitBuilder b;
  b.add_input("a");
  const auto ff = b.add_dff("ff");
  b.set_dff_input(ff, b.add_gate(netlist::GateType::kNot, "n", {ff}));
  b.mark_output(ff);
  const auto c = std::move(b).build("osc");
  DeterministicJustifier j(c, limits());
  const auto out = j.justify({V3::k1}, util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kUnjustifiable);
}

/// Re-runs DeterministicJustifier's recursion (no StateStore) with one
/// standalone FrameGoalSearch per level and totals the effort of every
/// model it used, read off the models rather than through the searches'
/// stats folding.  Returns whether `target` was justified.
bool replay_justify(const netlist::Circuit& c, const State3& target,
                    const SearchLimits& lim, unsigned depth,
                    std::vector<State3>& path, SearchStats& search_stats,
                    FrameModelStats& model_total) {
  if (std::all_of(target.begin(), target.end(),
                  [](V3 v) { return v == V3::kX; })) {
    return true;
  }
  if (std::find(path.begin(), path.end(), target) != path.end()) return false;
  if (depth == 0) return false;
  std::vector<Objective> goals;
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (target[i] != V3::kX) {
      goals.push_back({0, c.fanins(c.flip_flops()[i])[0], target[i]});
    }
  }
  FrameGoalSearch search(c, std::move(goals));
  bool justified = false;
  while (search.next(util::Deadline::unlimited(), lim.max_backtracks,
                     search_stats) == FrameGoalSearch::Step::kSolution) {
    const State3 previous = search.minimized_state();
    path.push_back(target);
    justified = replay_justify(c, previous, lim, depth - 1, path,
                               search_stats, model_total);
    path.pop_back();
    if (justified) break;
  }
  model_total.gate_evals += search.model().stats().gate_evals;
  model_total.events += search.model().stats().events;
  return justified;
}

TEST(DeterministicJustifier, StatsCountEveryModelEvaluation) {
  // Includes the minimization probes of each level's final solution, which
  // no later next() call folds.
  SearchLimits lim = limits();
  lim.max_backtracks = 200;
  lim.max_justify_depth = 6;
  std::size_t justified = 0;
  for (const std::string& name : {std::string("s27"), std::string("g298")}) {
    const auto c = gen::make_circuit(name);
    const std::size_t nff = c.flip_flops().size();
    util::Rng rng(41);
    for (int trial = 0; trial < 12; ++trial) {
      State3 target(nff, V3::kX);
      for (std::size_t i = 0; i < nff; ++i) {
        if (rng.below(2) == 0) target[i] = rng.bit() ? V3::k1 : V3::k0;
      }
      DeterministicJustifier j(c, lim);
      const auto out = j.justify(target, util::Deadline::unlimited());
      std::vector<State3> path;
      SearchStats search_stats;
      FrameModelStats model_total;
      const bool replayed =
          replay_justify(c, target, lim, lim.max_justify_depth, path,
                         search_stats, model_total);
      ASSERT_EQ(replayed,
                out.status == DeterministicJustifier::Status::kJustified)
          << c.name() << " trial " << trial;
      if (replayed) ++justified;
      EXPECT_EQ(j.stats().gate_evals,
                static_cast<long>(model_total.gate_evals))
          << c.name() << " trial " << trial;
      EXPECT_EQ(j.stats().events, static_cast<long>(model_total.events))
          << c.name() << " trial " << trial;
      EXPECT_EQ(j.stats().backtracks, search_stats.backtracks)
          << c.name() << " trial " << trial;
    }
  }
  EXPECT_GT(justified, 0u);
}

// Property: every state actually reached by random simulation must be
// justifiable, and the produced sequence must work.
class JustifyReachable : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JustifyReachable, ReachedStatesAreJustified) {
  test::RandomCircuitSpec spec;
  spec.seed = GetParam() + 3000;
  spec.num_ffs = 3;
  spec.num_gates = 25;
  const auto c = test::make_random_circuit(spec);
  util::Rng rng(GetParam());
  test::ReferenceSimulator ref(c);
  for (const auto& v : test::random_sequence(c, rng, 5)) {
    ref.apply(v);
    ref.clock();
  }
  const State3 reached = ref.state();
  bool any_defined = false;
  for (V3 v : reached) any_defined |= v != V3::kX;
  if (!any_defined) GTEST_SKIP() << "simulation left all flip-flops X";

  DeterministicJustifier j(c, limits());
  const auto out = j.justify(reached, util::Deadline::unlimited());
  ASSERT_EQ(out.status, DeterministicJustifier::Status::kJustified)
      << "reached state must be justifiable (seed " << GetParam() << ")";
  expect_justifies(c, reached, out.sequence);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, JustifyReachable,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace gatpg::atpg
