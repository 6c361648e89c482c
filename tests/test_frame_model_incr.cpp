// Differential tests for the FrameModel implication engines and storage
// layouts: the event-driven incremental engine (default) must agree
// bit-for-bit with the oblivious full re-simulation reference, and the flat
// composite-byte layout (default) must agree bit-for-bit — values, trail
// marks, D-frontier contents and order, and effort stats — with the legacy
// nested-vector layout, on randomized operation sequences (assignments,
// clears, window extensions, trail-based backtracking) over every registry
// circuit; the deterministic search built on top must make identical
// decisions in every mode/layout combination.  A model restricted to a
// goal set's fanin cone must agree with an unrestricted one inside the
// cone, and FrameGoalSearch's in-place minimization must leave its search
// undisturbed.  FrameModelPool reuse (reset-and-reuse instead of per-fault
// construction) must also be bit-identical and must retain buffer capacity
// across shrink/grow cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "atpg/detengine.h"
#include "atpg/frame_model.h"
#include "atpg/justify.h"
#include "fault/faultlist.h"
#include "gen/registry.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gatpg::atpg {
namespace {

using fault::Fault;
using sim::V3;

constexpr unsigned kMaxFrames = 5;

/// Asserts that every observable of the two models matches: window size,
/// both value planes of every active frame, the fault-effect summaries, the
/// D-frontier (contents *and* order), and the extracted vectors/state.
void expect_agree(const netlist::Circuit& c, FrameModel& incr,
                  FrameModel& obl, const std::string& context) {
  ASSERT_EQ(incr.frame_count(), obl.frame_count()) << context;
  for (unsigned t = 0; t < incr.frame_count(); ++t) {
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      ASSERT_EQ(incr.good(t, n), obl.good(t, n))
          << context << " good frame " << t << " node " << c.name(n);
      if (incr.has_fault()) {
        ASSERT_EQ(incr.faulty(t, n), obl.faulty(t, n))
            << context << " faulty frame " << t << " node " << c.name(n);
      }
    }
    ASSERT_EQ(incr.d_reaches_ff_input(t), obl.d_reaches_ff_input(t))
        << context << " d_reaches_ff_input frame " << t;
  }
  ASSERT_EQ(incr.po_has_d(), obl.po_has_d()) << context;
  const auto fi = incr.d_frontier();
  const auto fo = obl.d_frontier();
  ASSERT_EQ(fi.size(), fo.size()) << context << " d_frontier size";
  for (std::size_t k = 0; k < fi.size(); ++k) {
    ASSERT_EQ(fi[k].frame, fo[k].frame) << context << " d_frontier[" << k
                                        << "]";
    ASSERT_EQ(fi[k].node, fo[k].node) << context << " d_frontier[" << k
                                      << "]";
  }
  ASSERT_EQ(incr.extract_vectors(), obl.extract_vectors()) << context;
  ASSERT_EQ(incr.extract_state(), obl.extract_state()) << context;
}

/// One randomized push/backtrack session against both engines.  Pushed ops
/// mirror DecisionStack usage: a trail mark + frame count are recorded
/// before each op so backtracking can restore the incremental model via
/// undo_to while the oblivious model reverse-applies the recorded
/// assignments and re-simulates.
void run_random_session(const netlist::Circuit& c,
                        const std::optional<Fault>& fault, unsigned ops,
                        std::uint64_t seed) {
  FrameModel incr(c, fault, kMaxFrames);  // incremental is the default
  FrameModel obl(c, fault, kMaxFrames, FrameModelConfig{false});
  ASSERT_TRUE(incr.incremental());
  ASSERT_FALSE(obl.incremental());

  struct Undo {
    bool is_pi = false;
    bool is_state = false;
    unsigned frame = 0;
    std::size_t index = 0;
    V3 old_value = V3::kX;
  };
  struct PushedOp {
    std::size_t mark = 0;
    unsigned frames_at_push = 1;
    std::vector<Undo> undos;
  };
  std::vector<PushedOp> stack;

  util::Rng rng(seed);
  const std::size_t npi = c.primary_inputs().size();
  const std::size_t nff = c.flip_flops().size();
  const V3 values[3] = {V3::k0, V3::k1, V3::kX};

  const std::string base =
      c.name() + (fault ? " fault@" + c.name(fault->node) : " no-fault");
  for (unsigned op = 0; op < ops; ++op) {
    const std::string context = base + " op " + std::to_string(op);
    const std::uint64_t kind = rng.below(10);
    if (kind < 3 && !stack.empty()) {
      // Backtrack: restore to the state before the most recent push.
      const PushedOp popped = stack.back();
      stack.pop_back();
      incr.undo_to(popped.mark);
      incr.set_frame_count(popped.frames_at_push);
      for (auto it = popped.undos.rbegin(); it != popped.undos.rend(); ++it) {
        if (it->is_pi) {
          obl.assign_pi(it->frame, it->index, it->old_value);
        } else if (it->is_state) {
          obl.assign_state(it->index, it->old_value);
        }
      }
      obl.set_frame_count(popped.frames_at_push);
      obl.simulate();
    } else {
      PushedOp pushed;
      pushed.mark = incr.trail_mark();
      pushed.frames_at_push = incr.frame_count();
      if (kind < 5 && incr.frame_count() < kMaxFrames) {
        ASSERT_TRUE(incr.extend()) << context;
        ASSERT_TRUE(obl.extend()) << context;
      } else if (nff > 0 && kind < 7) {
        Undo u;
        u.is_state = true;
        u.index = rng.below(nff);
        u.old_value = incr.state_value(u.index);
        const V3 v = values[rng.below(3)];
        incr.assign_state(u.index, v);
        obl.assign_state(u.index, v);
        pushed.undos.push_back(u);
      } else if (npi > 0) {
        Undo u;
        u.is_pi = true;
        u.frame = static_cast<unsigned>(rng.below(incr.frame_count()));
        u.index = rng.below(npi);
        u.old_value = incr.pi_value(u.frame, u.index);
        const V3 v = values[rng.below(3)];
        incr.assign_pi(u.frame, u.index, v);
        obl.assign_pi(u.frame, u.index, v);
        pushed.undos.push_back(u);
      }
      obl.simulate();
      stack.push_back(std::move(pushed));
    }
    incr.simulate();  // must be a safe no-op in incremental mode
    expect_agree(c, incr, obl, context);
  }

  // Full unwind: the trail must restore the exact post-construction state.
  if (!stack.empty()) incr.undo_to(stack.front().mark);
  incr.set_frame_count(1);
  FrameModel fresh(c, fault, kMaxFrames);
  for (std::size_t i = 0; i < npi; ++i) {
    ASSERT_EQ(incr.pi_value(0, i), V3::kX) << base;
  }
  for (std::size_t i = 0; i < nff; ++i) {
    ASSERT_EQ(incr.state_value(i), V3::kX) << base;
  }
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    ASSERT_EQ(incr.good(0, n), fresh.good(0, n)) << base << " " << c.name(n);
    if (fault) {
      ASSERT_EQ(incr.faulty(0, n), fresh.faulty(0, n))
          << base << " " << c.name(n);
    }
  }
}

/// A spread of faults across the collapsed list (first, last, evenly
/// spaced), bounded by `count`.
std::vector<Fault> sample_faults(const netlist::Circuit& c,
                                 std::size_t count) {
  const auto all = fault::collapse(c).faults;
  std::vector<Fault> picked;
  if (all.empty() || count == 0) return picked;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / count);
  for (std::size_t i = 0; i < all.size() && picked.size() < count;
       i += stride) {
    picked.push_back(all[i]);
  }
  return picked;
}

TEST(FrameModelIncr, RandomizedOpsAgreeOnAllRegistryCircuits) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 12 : 48;
    run_random_session(c, std::nullopt, ops, 0xabc0 + c.node_count());
    const std::size_t fault_count = large ? 1 : 3;
    std::uint64_t seed = 17;
    for (const Fault& f : sample_faults(c, fault_count)) {
      run_random_session(c, f, ops, seed++);
    }
  }
}

TEST(FrameModelIncr, ObliviousTrailIsInertButDocumented) {
  const auto c = gen::make_circuit("s27");
  FrameModel m(c, std::nullopt, 3, FrameModelConfig{false});
  EXPECT_EQ(m.trail_mark(), 0u);
  m.assign_pi(0, 0, V3::k1);
  m.simulate();
  EXPECT_EQ(m.trail_mark(), 0u);
  m.undo_to(0);  // documented no-op
  EXPECT_EQ(m.pi_value(0, 0), V3::k1);
}

/// Runs one fault through ForwardEngine in the given mode and records every
/// observable of the search: per-solution status, vectors, minimized state,
/// and the final decision/backtrack counts.
struct SearchRecord {
  std::vector<ForwardStatus> statuses;
  std::vector<sim::Sequence> vectors;
  std::vector<sim::State3> states;
  long decisions = 0;
  long backtracks = 0;

  bool operator==(const SearchRecord&) const = default;
};

SearchRecord run_search(const netlist::Circuit& c, const Fault& f,
                        bool incremental, const ObsDistances& obs,
                        bool flat = true, FrameModelPool* pool = nullptr) {
  SearchLimits limits;
  limits.max_backtracks = 150;
  limits.max_forward_frames = 6;
  limits.incremental_model = incremental;
  limits.flat_model = flat;
  ForwardEngine engine(c, f, limits, obs, pool);
  // The unlimited deadline keeps the comparison deterministic: both modes
  // clip on the backtrack budget, never on wall clock.
  const auto deadline = util::Deadline::unlimited();
  SearchRecord r;
  for (unsigned s = 0; s < 3; ++s) {
    const ForwardStatus status = engine.next_solution(deadline);
    r.statuses.push_back(status);
    if (status != ForwardStatus::kSolved) break;
    r.vectors.push_back(engine.vectors());
    r.states.push_back(engine.required_state());
  }
  r.decisions = engine.stats().decisions;
  r.backtracks = engine.stats().backtracks;
  // Both modes must report implication effort through the same counters
  // (event pops exist only in incremental mode; a search that dies on an
  // immediate excitation conflict may legitimately pop none).
  EXPECT_GT(engine.stats().gate_evals, 0);
  if (!incremental) {
    EXPECT_EQ(engine.stats().events, 0);
  }
  return r;
}

TEST(FrameModelIncr, ForwardEngineIsModeDeterministic) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const auto obs = share_observation_distances(c);
    for (const Fault& f : sample_faults(c, large ? 2 : 6)) {
      const SearchRecord oblivious = run_search(c, f, false, obs);
      const SearchRecord incremental = run_search(c, f, true, obs);
      EXPECT_EQ(oblivious, incremental)
          << name << " fault at " << c.name(f.node) << " pin " << f.pin
          << " sa" << int(f.stuck_at);
    }
  }
}

TEST(FrameModelIncr, JustifierIsModeDeterministic) {
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    const auto obs = share_observation_distances(c);
    const std::size_t nff = c.flip_flops().size();
    util::Rng rng(7);
    for (int trial = 0; trial < 4; ++trial) {
      // Target states come from forward solutions so that a mix of
      // justifiable and unjustifiable goals is exercised.
      sim::State3 target(nff, V3::kX);
      for (std::size_t i = 0; i < nff; ++i) {
        const V3 values[3] = {V3::k0, V3::k1, V3::kX};
        target[i] = values[rng.below(3)];
      }
      SearchLimits limits;
      limits.max_backtracks = 100;
      limits.max_justify_depth = 6;
      limits.time_limit_s = 3600.0;  // determinism: clip on backtracks only

      limits.incremental_model = false;
      DeterministicJustifier obl(c, limits);
      const auto ro = obl.justify(target, util::Deadline::unlimited());

      limits.incremental_model = true;
      DeterministicJustifier incr(c, limits);
      const auto ri = incr.justify(target, util::Deadline::unlimited());

      EXPECT_EQ(static_cast<int>(ro.status), static_cast<int>(ri.status))
          << name << " trial " << trial;
      EXPECT_EQ(ro.sequence, ri.sequence) << name << " trial " << trial;
      EXPECT_EQ(obl.stats().decisions, incr.stats().decisions)
          << name << " trial " << trial;
      EXPECT_EQ(obl.stats().backtracks, incr.stats().backtracks)
          << name << " trial " << trial;
    }
  }
}

// -- Flat vs legacy layout ---------------------------------------------------

/// One randomized session driven identically against both storage layouts
/// under the same implication engine.  Beyond the value/frontier agreement
/// of expect_agree, the layouts must also agree on trail marks (entry for
/// entry — DecisionStack marks recorded on one layout must mean the same
/// thing on the other) and on the effort stats (gate_evals, events).
void run_layout_session(const netlist::Circuit& c,
                        const std::optional<Fault>& fault, bool incremental,
                        unsigned ops, std::uint64_t seed) {
  FrameModel flat(c, fault, kMaxFrames, FrameModelConfig{incremental, true});
  FrameModel legacy(c, fault, kMaxFrames,
                    FrameModelConfig{incremental, false});
  ASSERT_TRUE(flat.flat());
  ASSERT_FALSE(legacy.flat());

  struct Undo {
    bool is_pi = false;
    unsigned frame = 0;
    std::size_t index = 0;
    V3 old_value = V3::kX;
  };
  struct PushedOp {
    std::size_t mark = 0;
    unsigned frames_at_push = 1;
    std::vector<Undo> undos;
  };
  std::vector<PushedOp> stack;

  util::Rng rng(seed);
  const std::size_t npi = c.primary_inputs().size();
  const std::size_t nff = c.flip_flops().size();
  const V3 values[3] = {V3::k0, V3::k1, V3::kX};
  const std::string base = c.name() +
                           (fault ? " fault@" + c.name(fault->node)
                                  : " no-fault") +
                           (incremental ? " incr" : " obl");
  for (unsigned op = 0; op < ops; ++op) {
    const std::string context = base + " op " + std::to_string(op);
    const std::uint64_t kind = rng.below(10);
    if (kind < 3 && !stack.empty()) {
      const PushedOp popped = stack.back();
      stack.pop_back();
      if (incremental) {
        flat.undo_to(popped.mark);
        legacy.undo_to(popped.mark);
      } else {
        for (auto it = popped.undos.rbegin(); it != popped.undos.rend();
             ++it) {
          if (it->is_pi) {
            flat.assign_pi(it->frame, it->index, it->old_value);
            legacy.assign_pi(it->frame, it->index, it->old_value);
          } else {
            flat.assign_state(it->index, it->old_value);
            legacy.assign_state(it->index, it->old_value);
          }
        }
      }
      flat.set_frame_count(popped.frames_at_push);
      legacy.set_frame_count(popped.frames_at_push);
    } else {
      PushedOp pushed;
      pushed.mark = flat.trail_mark();
      pushed.frames_at_push = flat.frame_count();
      if (kind < 5 && flat.frame_count() < kMaxFrames) {
        ASSERT_TRUE(flat.extend()) << context;
        ASSERT_TRUE(legacy.extend()) << context;
      } else if (nff > 0 && kind < 7) {
        Undo u;
        u.index = rng.below(nff);
        u.old_value = flat.state_value(u.index);
        const V3 v = values[rng.below(3)];
        flat.assign_state(u.index, v);
        legacy.assign_state(u.index, v);
        pushed.undos.push_back(u);
      } else if (npi > 0) {
        Undo u;
        u.is_pi = true;
        u.frame = static_cast<unsigned>(rng.below(flat.frame_count()));
        u.index = rng.below(npi);
        u.old_value = flat.pi_value(u.frame, u.index);
        const V3 v = values[rng.below(3)];
        flat.assign_pi(u.frame, u.index, v);
        legacy.assign_pi(u.frame, u.index, v);
        pushed.undos.push_back(u);
      }
      stack.push_back(std::move(pushed));
    }
    flat.simulate();
    legacy.simulate();
    expect_agree(c, flat, legacy, context);
    ASSERT_EQ(flat.trail_mark(), legacy.trail_mark()) << context;
    ASSERT_EQ(flat.stats().gate_evals, legacy.stats().gate_evals) << context;
    ASSERT_EQ(flat.stats().events, legacy.stats().events) << context;
  }
}

TEST(FrameModelLayout, RandomizedOpsAgreeOnAllRegistryCircuits) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 10 : 36;
    for (const bool incremental : {true, false}) {
      run_layout_session(c, std::nullopt, incremental, ops,
                         0xf1a7 + c.node_count());
      std::uint64_t seed = 23;
      for (const Fault& f : sample_faults(c, large ? 1 : 2)) {
        run_layout_session(c, f, incremental, ops, seed++);
      }
    }
  }
}

TEST(FrameModelLayout, ForwardEngineIsLayoutDeterministic) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const auto obs = share_observation_distances(c);
    for (const Fault& f : sample_faults(c, large ? 2 : 4)) {
      const SearchRecord flat = run_search(c, f, true, obs, true);
      const SearchRecord legacy = run_search(c, f, true, obs, false);
      EXPECT_EQ(flat, legacy)
          << name << " fault at " << c.name(f.node) << " pin " << f.pin
          << " sa" << int(f.stuck_at);
    }
  }
}

TEST(FrameModelLayout, ObliviousSearchIsLayoutDeterministic) {
  for (const std::string& name :
       {std::string("s27"), std::string("g298")}) {
    const auto c = gen::make_circuit(name);
    const auto obs = share_observation_distances(c);
    for (const Fault& f : sample_faults(c, 4)) {
      const SearchRecord flat = run_search(c, f, false, obs, true);
      const SearchRecord legacy = run_search(c, f, false, obs, false);
      EXPECT_EQ(flat, legacy)
          << name << " fault at " << c.name(f.node) << " pin " << f.pin;
    }
  }
}

TEST(FrameModelLayout, JustifierIsLayoutDeterministic) {
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    const std::size_t nff = c.flip_flops().size();
    util::Rng rng(11);
    for (int trial = 0; trial < 4; ++trial) {
      sim::State3 target(nff, V3::kX);
      for (std::size_t i = 0; i < nff; ++i) {
        const V3 values[3] = {V3::k0, V3::k1, V3::kX};
        target[i] = values[rng.below(3)];
      }
      SearchLimits limits;
      limits.max_backtracks = 100;
      limits.max_justify_depth = 6;
      limits.time_limit_s = 3600.0;  // determinism: clip on backtracks only

      limits.flat_model = true;
      DeterministicJustifier flat(c, limits);
      const auto rf = flat.justify(target, util::Deadline::unlimited());

      limits.flat_model = false;
      DeterministicJustifier legacy(c, limits);
      const auto rl = legacy.justify(target, util::Deadline::unlimited());

      EXPECT_EQ(static_cast<int>(rf.status), static_cast<int>(rl.status))
          << name << " trial " << trial;
      EXPECT_EQ(rf.sequence, rl.sequence) << name << " trial " << trial;
      // Across layouts (same engine) the effort counters match exactly —
      // the flat path evaluates precisely the same gates and pops
      // precisely the same events as the legacy path.
      EXPECT_EQ(flat.stats().decisions, legacy.stats().decisions)
          << name << " trial " << trial;
      EXPECT_EQ(flat.stats().backtracks, legacy.stats().backtracks)
          << name << " trial " << trial;
      EXPECT_EQ(flat.stats().gate_evals, legacy.stats().gate_evals)
          << name << " trial " << trial;
      EXPECT_EQ(flat.stats().events, legacy.stats().events)
          << name << " trial " << trial;
    }
  }
}

// -- Cone restriction --------------------------------------------------------

/// A random justification goal set: the D inputs of a random subset of
/// flip-flops (at least one), as DeterministicJustifier builds them.
std::vector<Objective> random_goals(const netlist::Circuit& c, util::Rng& rng) {
  const auto ffs = c.flip_flops();
  std::vector<Objective> goals;
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (rng.below(4) == 0) {
      goals.push_back({0, c.fanins(ffs[i])[0], rng.bit() ? V3::k1 : V3::k0});
    }
  }
  if (goals.empty()) {
    const std::size_t i = rng.below(ffs.size());
    goals.push_back({0, c.fanins(ffs[i])[0], V3::k1});
  }
  return goals;
}

std::vector<netlist::NodeId> goal_nodes(const std::vector<Objective>& goals) {
  std::vector<netlist::NodeId> roots;
  for (const Objective& g : goals) roots.push_back(g.node);
  return roots;
}

/// Randomized assign/clear/undo sequences on a cone-restricted model and an
/// unrestricted one (both incremental, fault-free, single-frame): every
/// node of the cone must hold the same good value after every operation,
/// the restricted model never evaluates more gates, and a pooled model
/// re-acquired after the restricted session is unrestricted and equal to a
/// fresh one on every node.
TEST(FrameModelCone, RestrictedAgreesInsideTheCone) {
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    const std::size_t npi = c.primary_inputs().size();
    const std::size_t nff = c.flip_flops().size();
    const V3 values[3] = {V3::k0, V3::k1, V3::kX};
    util::Rng rng(0xc0e + c.node_count());
    FrameModelPool pool(c);
    std::size_t outside = 0;  // nodes left out of the cones, over all trials
    for (int trial = 0; trial < 6; ++trial) {
      const std::string base = name + " trial " + std::to_string(trial);
      const auto roots = goal_nodes(random_goals(c, rng));
      FrameModelHandle restricted = pool.acquire(std::nullopt, 1);
      FrameModel full(c, std::nullopt, 1);
      restricted->restrict_to_fanin_cone(roots);
      ASSERT_TRUE(restricted->restricted()) << base;
      // The cone holds the roots and is closed under fanins, except that
      // frame-0 flip-flops are leaves.
      for (netlist::NodeId r : roots) {
        ASSERT_TRUE(restricted->in_cone(r)) << base;
      }
      for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
        if (!restricted->in_cone(n)) {
          ++outside;
          continue;
        }
        if (c.type(n) == netlist::GateType::kDff) continue;
        for (netlist::NodeId in : c.fanins(n)) {
          ASSERT_TRUE(restricted->in_cone(in)) << base << " " << c.name(n);
        }
      }
      std::vector<std::pair<std::size_t, std::size_t>> marks;
      for (int op = 0; op < 60; ++op) {
        const std::string context = base + " op " + std::to_string(op);
        const std::uint64_t kind = rng.below(10);
        if (kind < 3 && !marks.empty()) {
          restricted->undo_to(marks.back().first);
          full.undo_to(marks.back().second);
          marks.pop_back();
        } else {
          marks.emplace_back(restricted->trail_mark(), full.trail_mark());
          if (kind < 6) {
            // Any PI, inside the cone or not.
            const std::size_t i = rng.below(npi);
            const V3 v = values[rng.below(3)];
            restricted->assign_pi(0, i, v);
            full.assign_pi(0, i, v);
          } else if (kind < 7) {
            const std::size_t i = rng.below(npi);
            restricted->clear_pi(0, i);
            full.clear_pi(0, i);
          } else if (kind < 9) {
            const std::size_t i = rng.below(nff);
            const V3 v = values[rng.below(3)];
            restricted->assign_state(i, v);
            full.assign_state(i, v);
          } else {
            const std::size_t i = rng.below(nff);
            restricted->clear_state(i);
            full.clear_state(i);
          }
        }
        for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
          if (!restricted->in_cone(n)) continue;
          ASSERT_EQ(restricted->good(0, n), full.good(0, n))
              << context << " node " << c.name(n);
        }
        ASSERT_EQ(restricted->extract_state(), full.extract_state())
            << context;
        ASSERT_EQ(restricted->extract_vectors(), full.extract_vectors())
            << context;
        ASSERT_LE(restricted->stats().gate_evals, full.stats().gate_evals)
            << context;
      }
    }
    // Large circuits' goal cones leave part of the frame out; otherwise the
    // restriction would be vacuous and this test would prove nothing.
    if (name != "s27") {
      EXPECT_GT(outside, 0u) << name;
    }

    // The pool's model comes back unrestricted and equal to a fresh one.
    FrameModelHandle again = pool.acquire(std::nullopt, 1);
    EXPECT_EQ(pool.constructions(), 1u) << name;
    EXPECT_FALSE(again->restricted()) << name;
    FrameModel fresh(c, std::nullopt, 1);
    util::Rng ops(5);
    for (int op = 0; op < 8; ++op) {
      const std::size_t i = ops.below(npi);
      const V3 v = values[ops.below(3)];
      again->assign_pi(0, i, v);
      fresh.assign_pi(0, i, v);
      for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
        ASSERT_EQ(again->good(0, n), fresh.good(0, n))
            << name << " op " << op << " node " << c.name(n);
      }
      ASSERT_EQ(again->stats().gate_evals, fresh.stats().gate_evals) << name;
    }
  }
}

TEST(FrameModelCone, ObliviousModelIgnoresTheRestriction) {
  const auto c = gen::make_circuit("g298");
  FrameModel m(c, std::nullopt, 1, FrameModelConfig{false});
  const std::vector<netlist::NodeId> roots = {
      c.fanins(c.flip_flops()[0])[0]};
  m.restrict_to_fanin_cone(roots);
  EXPECT_FALSE(m.restricted());
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    EXPECT_TRUE(m.in_cone(n));
  }
}

/// Everything minimized_state() must leave untouched on the search model.
struct ModelSnapshot {
  std::vector<V3> pis;
  sim::State3 state;
  std::vector<V3> cone_values;
  std::size_t trail_mark = 0;

  bool operator==(const ModelSnapshot&) const = default;
};

ModelSnapshot snapshot(const netlist::Circuit& c, const FrameModel& m) {
  ModelSnapshot s;
  for (std::size_t i = 0; i < c.primary_inputs().size(); ++i) {
    s.pis.push_back(m.pi_value(0, i));
  }
  s.state = m.extract_state();
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    if (m.in_cone(n)) s.cone_values.push_back(m.good(0, n));
  }
  s.trail_mark = m.trail_mark();
  return s;
}

/// In-place minimization: after every solution, minimized_state() leaves
/// the search model as it found it, the solutions that follow equal those
/// of a search that never minimized, each cube equals the oblivious-mode
/// cube, and each cube still satisfies the goals on a fresh model.
TEST(FrameGoalSearchMinimize, InPlaceProbesLeaveTheSearchIntact) {
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    util::Rng rng(0x5ea + c.node_count());
    const auto deadline = util::Deadline::unlimited();
    std::size_t solutions = 0;
    for (int trial = 0; trial < 6; ++trial) {
      const std::string base = name + " trial " + std::to_string(trial);
      const auto goals = random_goals(c, rng);
      FrameModelPool pool(c);
      FrameGoalSearch minimizing(c, goals, FrameModelConfig{true}, &pool);
      FrameGoalSearch plain(c, goals, FrameModelConfig{true}, &pool);
      FrameGoalSearch oblivious(c, goals, FrameModelConfig{false}, &pool);
      SearchStats sm, sp, so;
      for (int k = 0; k < 8; ++k) {
        const std::string context = base + " solution " + std::to_string(k);
        const auto step = minimizing.next(deadline, 200, sm);
        ASSERT_EQ(step, plain.next(deadline, 200, sp)) << context;
        ASSERT_EQ(step, oblivious.next(deadline, 200, so)) << context;
        if (step != FrameGoalSearch::Step::kSolution) break;
        ++solutions;
        const FrameModel& m = minimizing.model();
        ASSERT_EQ(m.extract_state(), plain.model().extract_state()) << context;
        ASSERT_EQ(m.extract_vectors(), plain.model().extract_vectors())
            << context;

        const ModelSnapshot before = snapshot(c, m);
        const sim::State3 cube = minimizing.minimized_state();
        ASSERT_EQ(snapshot(c, m), before) << context;

        const ModelSnapshot obl_before = snapshot(c, oblivious.model());
        ASSERT_EQ(oblivious.minimized_state(), cube) << context;
        ASSERT_EQ(snapshot(c, oblivious.model()), obl_before) << context;

        FrameModel check(c, std::nullopt, 1);
        for (std::size_t i = 0; i < c.primary_inputs().size(); ++i) {
          check.assign_pi(0, i, m.pi_value(0, i));
        }
        for (std::size_t i = 0; i < cube.size(); ++i) {
          ASSERT_TRUE(cube[i] == V3::kX || cube[i] == before.state[i])
              << context << " ff " << i;
          check.assign_state(i, cube[i]);
        }
        for (const Objective& g : goals) {
          ASSERT_EQ(check.good(0, g.node), g.value) << context;
        }
      }
      EXPECT_EQ(sm.decisions, sp.decisions) << base;
      EXPECT_EQ(sm.backtracks, sp.backtracks) << base;
      EXPECT_EQ(sm.decisions, so.decisions) << base;
      EXPECT_EQ(sm.backtracks, so.backtracks) << base;
    }
    EXPECT_GT(solutions, 0u) << name;
  }
}

// -- Model pooling -----------------------------------------------------------

TEST(FrameModelPool, AcquireReusesFreedModels) {
  const auto c = gen::make_circuit("g298");
  const auto faults = sample_faults(c, 3);
  ASSERT_GE(faults.size(), 2u);
  FrameModelPool pool(c);
  EXPECT_EQ(pool.constructions(), 0u);
  EXPECT_EQ(pool.acquires(), 0u);
  {
    const FrameModelHandle h = pool.acquire(faults[0], 3);
    EXPECT_EQ(pool.constructions(), 1u);
    // A second concurrent handle needs a second model.
    const FrameModelHandle h2 = pool.acquire(faults[1], 4);
    EXPECT_EQ(pool.constructions(), 2u);
  }
  // Both returned to the free list: further acquires construct nothing.
  for (unsigned i = 0; i < 8; ++i) {
    const FrameModelHandle h =
        pool.acquire(faults[i % faults.size()], 2 + i % 3);
    EXPECT_EQ(pool.constructions(), 2u) << i;
  }
  EXPECT_EQ(pool.acquires(), 10u);
}

TEST(FrameModelPool, ResetIsBitIdenticalToFreshConstruction) {
  const auto c = gen::make_circuit("g298");
  const auto faults = sample_faults(c, 4);
  ASSERT_GE(faults.size(), 2u);
  const std::size_t npi = c.primary_inputs().size();
  for (const bool flat : {true, false}) {
    for (const bool incremental : {true, false}) {
      const FrameModelConfig config{incremental, flat};
      // Dirty a model thoroughly: fault A, assignments, window growth.
      FrameModel reused(c, faults[0], 4, config);
      util::Rng rng(31);
      reused.extend();
      for (int i = 0; i < 6; ++i) {
        reused.assign_pi(static_cast<unsigned>(rng.below(2)), rng.below(npi),
                         rng.bit() ? V3::k1 : V3::k0);
      }
      reused.simulate();
      // Reset to fault B must equal a fresh fault-B model everywhere.
      reused.reset(faults[1], 3, config);
      FrameModel fresh(c, faults[1], 3, config);
      expect_agree(c, reused, fresh, "reset-vs-fresh");
      EXPECT_EQ(reused.trail_mark(), 0u);
      EXPECT_EQ(reused.stats().gate_evals, fresh.stats().gate_evals);
      EXPECT_EQ(reused.stats().events, fresh.stats().events);
      // And it must behave identically from here on.
      reused.assign_pi(0, 0, V3::k1);
      fresh.assign_pi(0, 0, V3::k1);
      reused.simulate();
      fresh.simulate();
      expect_agree(c, reused, fresh, "reset-vs-fresh after assign");
    }
  }
}

TEST(FrameModelPool, BufferCapacityRetainedAcrossShrinkGrowCycles) {
  const auto c = gen::make_circuit("g526");
  const auto faults = sample_faults(c, 2);
  ASSERT_GE(faults.size(), 2u);
  FrameModel m(c, faults[0], 6);
  const std::uint64_t grows = m.buffer_grows();
  // Window shrink/grow via reset and extend/set_frame_count must reuse the
  // high-water buffers, never reallocate.
  for (int cycle = 0; cycle < 4; ++cycle) {
    m.reset(faults[1], 2);
    while (m.extend()) {
    }
    m.set_frame_count(1);
    m.reset(faults[0], 6);
    while (m.extend()) {
    }
    EXPECT_EQ(m.buffer_grows(), grows) << "cycle " << cycle;
  }
}

TEST(FrameModelPool, SharedPoolSearchesAreBitIdentical) {
  const auto c = gen::make_circuit("g298");
  const auto obs = share_observation_distances(c);
  const auto faults = sample_faults(c, 6);
  FrameModelPool pool(c);
  for (const Fault& f : faults) {
    const SearchRecord pooled = run_search(c, f, true, obs, true, &pool);
    const SearchRecord solo = run_search(c, f, true, obs, true, nullptr);
    EXPECT_EQ(pooled, solo) << c.name(f.node) << " pin " << f.pin;
  }
  // One model + one required_state scratch serve the whole fault list.
  EXPECT_LE(pool.constructions(), 2u);
  EXPECT_GE(pool.acquires(), faults.size());
}

}  // namespace
}  // namespace gatpg::atpg
