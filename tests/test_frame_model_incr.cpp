// FrameModel against its oracle, tests/helpers/reference_frame_model.h (a
// naive re-simulate-everything model sharing no evaluation code with
// src/atpg): randomized operation sequences (assignments, clears, window
// extension and resizing, trail marks and undo) over every registry circuit,
// fault-free and under stuck-at and transition faults, must agree on both
// value planes of every node, the fault-effect summaries and the D-frontier
// (contents and order).  The searches built on the model are checked by
// replaying their results on the oracle: forward solutions detect, minimized
// state cubes satisfy their goals and are 1-minimal, and justified sequences
// reach their targets.  The incremental engine's bookkeeping (per-assignment
// effort bounds, free undo and repeats) is checked on its own, the flat
// storage must behave identically in fresh, wider and reused buffers (trail
// marks and effort counters included), and the searches must be identical
// under every deadline mode and on pooled models.  A model restricted to a
// goal set's fanin cone must agree with the oracle inside the cone,
// FrameGoalSearch's in-place minimization must leave its search undisturbed,
// and FrameModelPool reuse (reset-and-reuse instead of per-fault
// construction) must be bit-identical and must retain buffer capacity
// across shrink/grow cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/detengine.h"
#include "atpg/frame_model.h"
#include "atpg/justify.h"
#include "fault/faultlist.h"
#include "gen/registry.h"
#include "helpers/reference_frame_model.h"
#include "helpers/reference_sim.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gatpg::atpg {
namespace {

using fault::Fault;
using sim::V3;
using test::ReferenceFrameModel;

constexpr unsigned kMaxFrames = 5;

/// Asserts that every observable of the model matches the oracle: window
/// size, both value planes of every active frame, the fault-effect
/// summaries, the D-frontier (contents *and* order), and the extracted
/// vectors/state.
void expect_matches_reference(const netlist::Circuit& c, const FrameModel& m,
                              const ReferenceFrameModel& ref,
                              const std::string& context) {
  ASSERT_EQ(m.frame_count(), ref.frame_count()) << context;
  for (unsigned t = 0; t < m.frame_count(); ++t) {
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      ASSERT_EQ(m.good(t, n), ref.good(t, n))
          << context << " good frame " << t << " node " << c.name(n);
      ASSERT_EQ(m.faulty(t, n), ref.faulty(t, n))
          << context << " faulty frame " << t << " node " << c.name(n);
    }
    ASSERT_EQ(m.d_reaches_ff_input(t), ref.d_reaches_ff_input(t))
        << context << " d_reaches_ff_input frame " << t;
  }
  ASSERT_EQ(m.po_has_d(), ref.po_has_d()) << context;
  const auto& frontier = m.d_frontier();
  const auto expected = ref.d_frontier();
  ASSERT_EQ(frontier.size(), expected.size()) << context << " d_frontier size";
  for (std::size_t k = 0; k < frontier.size(); ++k) {
    ASSERT_EQ(frontier[k].frame, expected[k].frame)
        << context << " d_frontier[" << k << "]";
    ASSERT_EQ(frontier[k].node, expected[k].node)
        << context << " d_frontier[" << k << "]";
  }
  ASSERT_EQ(m.extract_vectors(), ref.extract_vectors()) << context;
  ASSERT_EQ(m.extract_state(), ref.extract_state()) << context;
}

/// One randomized session driving the model and the oracle with the same
/// operations, compared after every one.  A mark records both positions and
/// the window size; undoing to it restores assignments (and values) and
/// then the window, as DecisionStack does.  PI assignments may land in
/// inactive frames, which pick them up when activated.
void run_oracle_session(const netlist::Circuit& c,
                        const std::optional<Fault>& fault, unsigned ops,
                        std::uint64_t seed) {
  FrameModel m(c, fault, kMaxFrames);
  ReferenceFrameModel ref(c, fault, kMaxFrames);
  struct Mark {
    std::size_t model = 0;
    std::size_t ref = 0;
    unsigned frames = 1;
  };
  std::vector<Mark> marks;

  util::Rng rng(seed);
  const std::size_t npi = c.primary_inputs().size();
  const std::size_t nff = c.flip_flops().size();
  const V3 values[3] = {V3::k0, V3::k1, V3::kX};
  const std::string base =
      c.name() + (fault ? " fault " + fault::to_string(c, *fault)
                        : " no-fault");
  expect_matches_reference(c, m, ref, base + " construction");
  for (unsigned op = 0; op < ops; ++op) {
    const std::string context = base + " op " + std::to_string(op);
    const std::uint64_t kind = rng.below(12);
    if (kind < 2) {
      marks.push_back({m.trail_mark(), ref.mark(), m.frame_count()});
    } else if (kind < 4 && !marks.empty()) {
      const Mark mk = marks.back();
      marks.pop_back();
      m.undo_to(mk.model);
      m.set_frame_count(mk.frames);
      ref.undo_to(mk.ref);
      ref.set_frame_count(mk.frames);
    } else if (kind < 5) {
      ASSERT_EQ(m.extend(), ref.extend()) << context;
    } else if (kind < 6) {
      const auto n = static_cast<unsigned>(1 + rng.below(kMaxFrames));
      m.set_frame_count(n);
      ref.set_frame_count(n);
    } else if (nff > 0 && kind < 8) {
      const std::size_t i = rng.below(nff);
      const V3 v = values[rng.below(3)];
      m.assign_state(i, v);
      ref.assign_state(i, v);
    } else if (npi > 0 && kind < 11) {
      const auto frame = static_cast<unsigned>(rng.below(kMaxFrames));
      const std::size_t i = rng.below(npi);
      const V3 v = values[rng.below(3)];
      m.assign_pi(frame, i, v);
      ref.assign_pi(frame, i, v);
    } else if (npi > 0 && rng.bit()) {
      const auto frame = static_cast<unsigned>(rng.below(m.frame_count()));
      const std::size_t i = rng.below(npi);
      m.clear_pi(frame, i);
      ref.clear_pi(frame, i);
    } else if (nff > 0) {
      const std::size_t i = rng.below(nff);
      m.clear_state(i);
      ref.clear_state(i);
    }
    expect_matches_reference(c, m, ref, context);
  }

  // Full unwind: the trail must restore the exact post-construction state.
  m.undo_to(0);
  m.set_frame_count(1);
  ReferenceFrameModel fresh(c, fault, kMaxFrames);
  expect_matches_reference(c, m, fresh, base + " unwound");
}

/// A spread of faults across the collapsed list of `universe` (first and
/// evenly spaced), bounded by `count`.
std::vector<Fault> sample_faults(
    const netlist::Circuit& c, std::size_t count,
    fault::FaultUniverse universe = fault::FaultUniverse::kStuckAt) {
  const auto all = fault::collapse(c, universe).faults;
  std::vector<Fault> picked;
  if (all.empty() || count == 0) return picked;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / count);
  for (std::size_t i = 0; i < all.size() && picked.size() < count;
       i += stride) {
    picked.push_back(all[i]);
  }
  return picked;
}

/// Stuck-at and transition faults sampled from both universes, plus a
/// slow-to-rise on the first flip-flop's D pin (the one site whose launch
/// skew is 2, which the collapsed samples may miss).
std::vector<Fault> sample_both_models(const netlist::Circuit& c,
                                      std::size_t stuck_at,
                                      std::size_t transition) {
  std::vector<Fault> faults = sample_faults(c, stuck_at);
  for (const Fault& f :
       sample_faults(c, transition, fault::FaultUniverse::kTransition)) {
    faults.push_back(f);
  }
  if (!c.flip_flops().empty()) {
    faults.push_back(fault::make_transition(c.flip_flops()[0], 0, false));
  }
  return faults;
}

TEST(FrameModelOracle, RandomizedOpsAgreeOnAllRegistryCircuits) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 12 : 48;
    run_oracle_session(c, std::nullopt, ops, 0xabc0 + c.node_count());
    std::uint64_t seed = 17;
    for (const Fault& f :
         sample_both_models(c, large ? 1 : 3, large ? 1 : 2)) {
      run_oracle_session(c, f, ops, seed++);
    }
  }
}

/// Replays a forward solution on the oracle: the vectors and the required
/// state alone must put D/D̄ on a primary output.
void expect_solution_detects(const netlist::Circuit& c, const Fault& f,
                             const sim::Sequence& vectors,
                             const sim::State3& state,
                             const std::string& context) {
  const auto frames = static_cast<unsigned>(vectors.size());
  ReferenceFrameModel ref(c, f, frames);
  ref.set_frame_count(frames);
  for (unsigned t = 0; t < frames; ++t) {
    for (std::size_t i = 0; i < vectors[t].size(); ++i) {
      if (vectors[t][i] != V3::kX) ref.assign_pi(t, i, vectors[t][i]);
    }
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i] != V3::kX) ref.assign_state(i, state[i]);
  }
  EXPECT_TRUE(ref.po_has_d()) << context;
}

TEST(FrameModelOracle, ForwardSolutionsDetectOnTheReference) {
  SearchLimits limits;
  limits.max_backtracks = 150;
  limits.max_forward_frames = 6;
  // The unlimited deadline keeps the search deterministic: it clips on the
  // backtrack budget, never on wall clock.
  const auto deadline = util::Deadline::unlimited();
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const auto obs = share_observation_distances(c);
    std::size_t solutions = 0;
    for (const Fault& f : sample_both_models(c, large ? 2 : 6, large ? 1 : 3)) {
      const std::string base = name + " " + fault::to_string(c, f);
      ForwardEngine engine(c, f, limits, obs);
      for (unsigned s = 0; s < 3; ++s) {
        if (engine.next_solution(deadline) != ForwardStatus::kSolved) break;
        ++solutions;
        const std::string context = base + " solution " + std::to_string(s);
        const sim::State3 required = engine.required_state();
        // The requirement only drops assignments of the solution's state.
        for (std::size_t i = 0; i < required.size(); ++i) {
          ASSERT_TRUE(required[i] == V3::kX ||
                      required[i] == engine.model().state_value(i))
              << context << " ff " << i;
        }
        expect_solution_detects(c, f, engine.vectors(), required, context);
      }
      EXPECT_GT(engine.stats().gate_evals, 0) << base;
    }
    EXPECT_GT(solutions, 0u) << name;
  }
}

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

bool goals_hold(const ReferenceFrameModel& ref,
                const std::vector<Objective>& goals) {
  return std::all_of(goals.begin(), goals.end(), [&](const Objective& g) {
    return ref.good(0, g.node) == g.value;
  });
}

/// Each minimized cube, with the solution's PIs, satisfies every goal on
/// the oracle, only keeps assignments of the solution's state, and is
/// 1-minimal: clearing any assigned flip-flop breaks a goal.  (The greedy
/// pass kept that flip-flop because clearing it broke a goal while more
/// flip-flops were assigned; by three-valued monotonicity it still does.)
TEST(FrameModelOracle, MinimizedCubesSatisfyTheirGoalsMinimally) {
  const auto deadline = util::Deadline::unlimited();
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    util::Rng rng(0x0c0be + c.node_count());
    std::size_t solutions = 0;
    for (int trial = 0; trial < 6; ++trial) {
      const std::string base = name + " trial " + std::to_string(trial);
      const auto goals = random_goals(c, rng);
      FrameGoalSearch search(c, goals);
      SearchStats stats;
      for (int k = 0; k < 8; ++k) {
        if (search.next(deadline, 200, stats) !=
            FrameGoalSearch::Step::kSolution) {
          break;
        }
        ++solutions;
        const std::string context = base + " solution " + std::to_string(k);
        const FrameModel& m = search.model();
        const sim::State3 cube = search.minimized_state();
        ReferenceFrameModel ref(c, std::nullopt, 1);
        for (std::size_t i = 0; i < c.primary_inputs().size(); ++i) {
          ref.assign_pi(0, i, m.pi_value(0, i));
        }
        for (std::size_t i = 0; i < cube.size(); ++i) {
          ASSERT_TRUE(cube[i] == V3::kX || cube[i] == m.state_value(i))
              << context << " ff " << i;
          ref.assign_state(i, cube[i]);
        }
        ASSERT_TRUE(goals_hold(ref, goals)) << context;
        for (std::size_t i = 0; i < cube.size(); ++i) {
          if (cube[i] == V3::kX) continue;
          const std::size_t mark = ref.mark();
          ref.clear_state(i);
          EXPECT_FALSE(goals_hold(ref, goals))
              << context << " ff " << i << " is not needed";
          ref.undo_to(mark);
        }
      }
    }
    EXPECT_GT(solutions, 0u) << name;
  }
}

/// Each justified sequence, run from the power-up all-X state by the
/// reference simulator (X inputs left X), reaches a state covering the
/// target.
TEST(FrameModelOracle, JustifiedSequencesReachTheirTargets) {
  SearchLimits limits;
  limits.max_backtracks = 100;
  limits.max_justify_depth = 6;
  limits.time_limit_s = 3600.0;  // determinism: clip on backtracks only
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    const std::size_t nff = c.flip_flops().size();
    util::Rng rng(7);
    std::size_t justified = 0;
    for (int trial = 0; trial < 8; ++trial) {
      const std::string context = name + " trial " + std::to_string(trial);
      // Sparse targets, so that both justifiable and unjustifiable goals
      // are exercised.
      sim::State3 target(nff, V3::kX);
      for (std::size_t i = 0; i < nff; ++i) {
        if (rng.below(4) == 0) target[i] = rng.bit() ? V3::k1 : V3::k0;
      }
      DeterministicJustifier justifier(c, limits);
      const auto out = justifier.justify(target, util::Deadline::unlimited());
      if (out.status != DeterministicJustifier::Status::kJustified) continue;
      ++justified;
      test::ReferenceSimulator sim(c);
      for (const sim::Vector3& v : out.sequence) {
        sim.apply(v);
        sim.clock();
      }
      const sim::State3 reached = sim.state();
      for (std::size_t i = 0; i < nff; ++i) {
        if (target[i] != V3::kX) {
          EXPECT_EQ(reached[i], target[i]) << context << " ff " << i;
        }
      }
    }
    EXPECT_GT(justified, 0u) << name;
  }
}

// -- Incremental implication and flat storage --------------------------------
//
// The oracle suites above check what the model computes; these check how the
// one engine gets there.  FrameModelIncr: the event-driven engine's
// bookkeeping (an assignment evaluates each active cell at most once, undo
// restores without evaluating, a repeated assignment costs nothing) and a
// search that explores the same tree under every deadline mode.
// FrameModelLayout: the flat composite-byte storage behaves the same
// whatever buffers it lives in — freshly sized, sized for a wider window,
// or reset from earlier sessions under other faults — down to trail marks
// and effort counters, and so do the searches built on pooled models.

/// Every observable of a model: window size, both value planes of every
/// active frame, the fault-effect summaries, the D-frontier (in order) and
/// the extracted vectors/state.
struct FullSnapshot {
  unsigned frames = 0;
  std::vector<V3> planes;  // (good, faulty) per active (frame, node)
  std::vector<bool> d_at_ff_input;  // per active frame
  bool po_has_d = false;
  std::vector<std::pair<unsigned, netlist::NodeId>> frontier;
  sim::Sequence vectors;
  sim::State3 state;
};

FullSnapshot full_snapshot(const netlist::Circuit& c, const FrameModel& m) {
  FullSnapshot s;
  s.frames = m.frame_count();
  for (unsigned t = 0; t < s.frames; ++t) {
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      s.planes.push_back(m.good(t, n));
      s.planes.push_back(m.faulty(t, n));
    }
    s.d_at_ff_input.push_back(m.d_reaches_ff_input(t));
  }
  s.po_has_d = m.po_has_d();
  for (const auto& g : m.d_frontier()) s.frontier.emplace_back(g.frame, g.node);
  s.vectors = m.extract_vectors();
  s.state = m.extract_state();
  return s;
}

void expect_same_snapshot(const FullSnapshot& a, const FullSnapshot& b,
                          const std::string& context) {
  ASSERT_EQ(a.frames, b.frames) << context;
  ASSERT_TRUE(a.planes == b.planes) << context << ": value planes differ";
  ASSERT_EQ(a.d_at_ff_input, b.d_at_ff_input) << context;
  ASSERT_EQ(a.po_has_d, b.po_has_d) << context;
  ASSERT_TRUE(a.frontier == b.frontier) << context << ": D-frontier differs";
  ASSERT_EQ(a.vectors, b.vectors) << context;
  ASSERT_EQ(a.state, b.state) << context;
}

/// One assignment or clear of a PI (any frame below kMaxFrames, active or
/// not) or of a frame-0 flip-flop.
struct Assignment {
  bool is_pi = false;
  unsigned frame = 0;
  std::size_t index = 0;
  V3 value = V3::kX;

  void apply(FrameModel& m) const {
    if (is_pi) {
      m.assign_pi(frame, index, value);
    } else {
      m.assign_state(index, value);
    }
  }
};

Assignment random_assignment(const netlist::Circuit& c, util::Rng& rng) {
  const V3 values[3] = {V3::k0, V3::k1, V3::kX};
  Assignment a;
  a.is_pi = c.flip_flops().empty() || rng.bit();
  a.frame = a.is_pi ? static_cast<unsigned>(rng.below(kMaxFrames)) : 0;
  a.index = rng.below(a.is_pi ? c.primary_inputs().size()
                              : c.flip_flops().size());
  a.value = values[rng.below(3)];
  return a;
}

/// One randomized session checking the incremental engine's bookkeeping
/// against itself: an assignment evaluates each active (frame, node) cell
/// at most once per plane and pops at most one event per cell (none for an
/// inactive frame); repeating it adds no trail entry and costs nothing;
/// activating frames costs at most one evaluation per new cell; undo_to
/// evaluates nothing and restores the marked trail position and every
/// observable; the full unwind is the post-construction model.
void run_incremental_session(const netlist::Circuit& c,
                             const std::optional<Fault>& fault, unsigned ops,
                             std::uint64_t seed) {
  FrameModel m(c, fault, kMaxFrames);
  const FullSnapshot initial = full_snapshot(c, m);
  const std::uint64_t planes = fault ? 2 : 1;
  const std::uint64_t nodes = c.node_count();
  struct Mark {
    std::size_t trail = 0;
    FullSnapshot snapshot;
  };
  std::vector<Mark> marks;
  util::Rng rng(seed);
  const std::string base =
      c.name() + (fault ? " fault " + fault::to_string(c, *fault)
                        : " no-fault");
  for (unsigned op = 0; op < ops; ++op) {
    const std::string context = base + " op " + std::to_string(op);
    const std::uint64_t kind = rng.below(12);
    const FrameModelStats before = m.stats();
    const unsigned frames_before = m.frame_count();
    if (kind < 2) {
      marks.push_back({m.trail_mark(), full_snapshot(c, m)});
    } else if (kind < 4 && !marks.empty()) {
      const Mark mk = std::move(marks.back());
      marks.pop_back();
      m.undo_to(mk.trail);
      ASSERT_EQ(m.trail_mark(), mk.trail) << context;
      ASSERT_EQ(m.stats().gate_evals, before.gate_evals)
          << context << ": undo_to evaluated gates";
      ASSERT_EQ(m.stats().events, before.events) << context;
      m.set_frame_count(mk.snapshot.frames);
      expect_same_snapshot(full_snapshot(c, m), mk.snapshot,
                           context + " undo");
    } else if (kind < 6) {
      if (kind < 5) {
        m.extend();
      } else {
        m.set_frame_count(static_cast<unsigned>(1 + rng.below(kMaxFrames)));
      }
      const std::uint64_t activated =
          m.frame_count() > frames_before ? m.frame_count() - frames_before
                                          : 0;
      ASSERT_LE(m.stats().gate_evals - before.gate_evals,
                planes * nodes * activated)
          << context;
      ASSERT_LE(m.stats().events - before.events, nodes * activated)
          << context;
    } else {
      const Assignment a = random_assignment(c, rng);
      a.apply(m);
      const std::uint64_t cells =
          a.frame < m.frame_count() ? nodes * m.frame_count() : 0;
      ASSERT_LE(m.stats().gate_evals - before.gate_evals, planes * cells)
          << context;
      ASSERT_LE(m.stats().events - before.events, cells) << context;

      const std::size_t mark = m.trail_mark();
      const FrameModelStats after = m.stats();
      const FullSnapshot snapshot = full_snapshot(c, m);
      a.apply(m);
      ASSERT_EQ(m.trail_mark(), mark) << context << ": repeat was trailed";
      ASSERT_EQ(m.stats().gate_evals, after.gate_evals) << context;
      ASSERT_EQ(m.stats().events, after.events) << context;
      expect_same_snapshot(full_snapshot(c, m), snapshot,
                           context + " repeat");
    }
  }

  m.undo_to(0);
  m.set_frame_count(1);
  expect_same_snapshot(full_snapshot(c, m), initial, base + " unwound");
}

TEST(FrameModelIncr, RandomizedOpsAgreeOnAllRegistryCircuits) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 12 : 48;
    run_incremental_session(c, std::nullopt, ops, 0x1dc0 + c.node_count());
    std::uint64_t seed = 23;
    for (const Fault& f :
         sample_both_models(c, large ? 1 : 3, large ? 1 : 2)) {
      run_incremental_session(c, f, ops, seed++);
    }
  }
}

/// Drives every model in `models` with one randomized operation sequence
/// and requires them to stay identical after each operation: every
/// observable, the trail mark and the effort counters.  The models may have
/// different window caps, so the sequence stays within kMaxFrames.
void run_layout_session(const netlist::Circuit& c,
                        const std::vector<FrameModel*>& models, unsigned ops,
                        std::uint64_t seed, const std::string& base) {
  FrameModel& first = *models.front();
  struct Mark {
    std::size_t trail = 0;
    unsigned frames = 1;
  };
  std::vector<Mark> marks;
  util::Rng rng(seed);
  for (unsigned op = 0; op < ops; ++op) {
    const std::string context = base + " op " + std::to_string(op);
    const std::uint64_t kind = rng.below(12);
    if (kind < 2) {
      marks.push_back({first.trail_mark(), first.frame_count()});
    } else if (kind < 4 && !marks.empty()) {
      for (FrameModel* m : models) {
        m->undo_to(marks.back().trail);
        m->set_frame_count(marks.back().frames);
      }
      marks.pop_back();
    } else if (kind < 6) {
      const unsigned n =
          kind < 5 ? std::min(first.frame_count() + 1, kMaxFrames)
                   : static_cast<unsigned>(1 + rng.below(kMaxFrames));
      for (FrameModel* m : models) m->set_frame_count(n);
    } else {
      const Assignment a = random_assignment(c, rng);
      for (FrameModel* m : models) a.apply(*m);
    }
    const FullSnapshot expected = full_snapshot(c, first);
    for (std::size_t k = 1; k < models.size(); ++k) {
      const std::string which = context + " model " + std::to_string(k);
      expect_same_snapshot(full_snapshot(c, *models[k]), expected, which);
      ASSERT_EQ(models[k]->trail_mark(), first.trail_mark()) << which;
      ASSERT_EQ(models[k]->stats().gate_evals, first.stats().gate_evals)
          << which;
      ASSERT_EQ(models[k]->stats().events, first.stats().events) << which;
    }
  }
}

/// A freshly sized model, one sized for a wider window, and one model
/// reused across every session of a circuit (first widened to twice the
/// window, then reset before each session with the previous session's
/// state — under another fault, then under the same one — still in its
/// buffers) agree after every operation, and the reused one never
/// reallocates.
TEST(FrameModelLayout, RandomizedOpsAgreeOnAllRegistryCircuits) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 12 : 48;
    std::vector<std::optional<Fault>> faults = {std::nullopt};
    for (const Fault& f :
         sample_both_models(c, large ? 1 : 3, large ? 1 : 2)) {
      faults.emplace_back(f);
    }
    FrameModel reused(c, faults.back(), 2 * kMaxFrames);
    while (reused.extend()) {
    }
    const std::uint64_t grows = reused.buffer_grows();
    std::uint64_t seed = 41;
    for (const auto& fault : faults) {
      for (int session = 0; session < 2; ++session) {
        const std::string base =
            name + (fault ? " fault " + fault::to_string(c, *fault)
                          : " no-fault") +
            " session " + std::to_string(session);
        reused.reset(fault, kMaxFrames);
        FrameModel fresh(c, fault, kMaxFrames);
        FrameModel wide(c, fault, kMaxFrames + 3);
        run_layout_session(c, {&fresh, &reused, &wide}, ops, seed++, base);
        EXPECT_EQ(reused.buffer_grows(), grows) << base;
      }
    }
  }
}

/// Runs one fault through ForwardEngine and records every observable of the
/// search: per-solution status, vectors, minimized state, and the final
/// decision/backtrack/effort counts.
struct SearchRecord {
  std::vector<ForwardStatus> statuses;
  std::vector<sim::Sequence> vectors;
  std::vector<sim::State3> states;
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;
  long events = 0;

  bool operator==(const SearchRecord&) const = default;
};

SearchRecord run_search(
    const netlist::Circuit& c, const Fault& f, const ObsDistances& obs,
    FrameModelPool* pool,
    const util::Deadline& deadline = util::Deadline::unlimited()) {
  SearchLimits limits;
  limits.max_backtracks = 150;
  limits.max_forward_frames = 6;
  ForwardEngine engine(c, f, limits, obs, pool);
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
  r.gate_evals = engine.stats().gate_evals;
  r.events = engine.stats().events;
  return r;
}

/// The deadline modes a search runs under — none, a wall-clock budget
/// (sessions), a cancellation flag (the daemon) — only stop it: while none
/// expires, every mode explores the same tree.
TEST(FrameModelIncr, ForwardEngineIsModeDeterministic) {
  const std::atomic<bool> never{false};
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const auto obs = share_observation_distances(c);
    std::size_t solved = 0;
    for (const Fault& f : sample_both_models(c, large ? 2 : 4, large ? 1 : 2)) {
      const std::string context = name + " " + fault::to_string(c, f);
      const SearchRecord unlimited = run_search(c, f, obs, nullptr);
      EXPECT_EQ(run_search(c, f, obs, nullptr,
                           util::Deadline::after_seconds(3600.0)),
                unlimited)
          << context << " wall-clock deadline";
      EXPECT_EQ(run_search(c, f, obs, nullptr,
                           util::Deadline::cancelled_by(&never)),
                unlimited)
          << context << " cancellation deadline";
      solved += unlimited.vectors.size();
    }
    EXPECT_GT(solved, 0u) << name;
  }
}

/// Searches on models from one pool — first grown by a wider-window search,
/// then reset from fault to fault across both fault models — equal
/// searches on freshly allocated models, on every registry circuit.
TEST(FrameModelLayout, ForwardEngineIsLayoutDeterministic) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const auto obs = share_observation_distances(c);
    const auto faults = sample_both_models(c, large ? 2 : 4, large ? 1 : 2);
    FrameModelPool pool(c);
    {
      SearchLimits wide;
      wide.max_backtracks = 20;
      wide.max_forward_frames = 12;
      ForwardEngine warm(c, faults.back(), wide, obs, &pool);
      warm.next_solution(util::Deadline::unlimited());
      warm.required_state();
    }
    const std::size_t constructions = pool.constructions();
    for (const Fault& f : faults) {
      EXPECT_EQ(run_search(c, f, obs, &pool), run_search(c, f, obs, nullptr))
          << name << " " << fault::to_string(c, f);
    }
    // The warm-up's models serve every later search.
    EXPECT_EQ(pool.constructions(), constructions) << name;
  }
}

/// One justify() call: its outcome and its effort (justify() restarts the
/// justifier's counters).
struct JustifyRecord {
  DeterministicJustifier::Status status = DeterministicJustifier::Status::kAborted;
  sim::Sequence sequence;
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;
  long events = 0;

  bool operator==(const JustifyRecord&) const = default;
};

JustifyRecord run_justify(DeterministicJustifier& justifier,
                          const sim::State3& target,
                          const util::Deadline& deadline) {
  const auto out = justifier.justify(target, deadline);
  const SearchStats& stats = justifier.stats();
  return {out.status,     out.sequence,     stats.decisions,
          stats.backtracks, stats.gate_evals, stats.events};
}

SearchLimits justify_limits() {
  SearchLimits limits;
  limits.max_backtracks = 100;
  limits.max_justify_depth = 6;
  limits.time_limit_s = 3600.0;  // determinism: clip on backtracks only
  return limits;
}

/// Sparse random targets, so that both justifiable and unjustifiable goals
/// are exercised.
std::vector<sim::State3> random_targets(const netlist::Circuit& c,
                                        std::size_t count, util::Rng& rng) {
  const std::size_t nff = c.flip_flops().size();
  std::vector<sim::State3> targets;
  for (std::size_t k = 0; k < count; ++k) {
    sim::State3 target(nff, V3::kX);
    for (std::size_t i = 0; i < nff; ++i) {
      if (rng.below(4) == 0) target[i] = rng.bit() ? V3::k1 : V3::k0;
    }
    targets.push_back(std::move(target));
  }
  return targets;
}

/// Justification, like the forward search, explores the same tree under
/// every deadline mode that does not expire.
TEST(FrameModelIncr, JustifierIsModeDeterministic) {
  const std::atomic<bool> never{false};
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    util::Rng rng(7);
    std::size_t justified = 0;
    int trial = 0;
    for (const sim::State3& target : random_targets(c, 8, rng)) {
      const std::string context = name + " trial " + std::to_string(trial++);
      DeterministicJustifier a(c, justify_limits());
      DeterministicJustifier b(c, justify_limits());
      DeterministicJustifier d(c, justify_limits());
      const JustifyRecord unlimited =
          run_justify(a, target, util::Deadline::unlimited());
      EXPECT_EQ(run_justify(b, target, util::Deadline::after_seconds(3600.0)),
                unlimited)
          << context << " wall-clock deadline";
      EXPECT_EQ(run_justify(d, target, util::Deadline::cancelled_by(&never)),
                unlimited)
          << context << " cancellation deadline";
      if (unlimited.status == DeterministicJustifier::Status::kJustified) {
        ++justified;
      }
    }
    EXPECT_GT(justified, 0u) << name;
  }
}

/// One justifier kept across every target, on a pool whose models a
/// forward search grew to a wide faulty window first (so its single-frame
/// fault-free models live in larger, reset buffers, and their cone
/// restrictions come and go), matches a fresh justifier per target call for
/// call, effort included.
TEST(FrameModelLayout, JustifierIsLayoutDeterministic) {
  for (const std::string& name :
       {std::string("s27"), std::string("g298"), std::string("g526")}) {
    const auto c = gen::make_circuit(name);
    FrameModelPool pool(c);
    {
      SearchLimits wide;
      wide.max_backtracks = 20;
      wide.max_forward_frames = 12;
      ForwardEngine warm(c, sample_faults(c, 1).front(), wide, nullptr,
                         &pool);
      warm.next_solution(util::Deadline::unlimited());
    }
    DeterministicJustifier kept(c, justify_limits(), nullptr, &pool);
    util::Rng rng(13);
    std::size_t justified = 0;
    int trial = 0;
    for (const sim::State3& target : random_targets(c, 8, rng)) {
      const std::string context = name + " trial " + std::to_string(trial++);
      DeterministicJustifier fresh(c, justify_limits());
      const JustifyRecord expected =
          run_justify(fresh, target, util::Deadline::unlimited());
      EXPECT_EQ(run_justify(kept, target, util::Deadline::unlimited()),
                expected)
          << context;
      if (expected.status == DeterministicJustifier::Status::kJustified) {
        ++justified;
      }
    }
    EXPECT_GT(justified, 0u) << name;
  }
}

// -- Cone restriction --------------------------------------------------------

/// Randomized assign/clear/undo sequences on a cone-restricted model (from a
/// pool), the oracle and an unrestricted model: every node of the cone must
/// hold the oracle's good value after every operation, the restricted model
/// never evaluates more gates than the unrestricted one, and a pooled model
/// re-acquired after the restricted session is unrestricted and agrees with
/// the oracle on every node.
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
      ReferenceFrameModel ref(c, std::nullopt, 1);
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
      struct Mark {
        std::size_t restricted, full, ref;
      };
      std::vector<Mark> marks;
      for (int op = 0; op < 60; ++op) {
        const std::string context = base + " op " + std::to_string(op);
        const std::uint64_t kind = rng.below(10);
        if (kind < 3 && !marks.empty()) {
          restricted->undo_to(marks.back().restricted);
          full.undo_to(marks.back().full);
          ref.undo_to(marks.back().ref);
          marks.pop_back();
        } else {
          marks.push_back({restricted->trail_mark(), full.trail_mark(),
                           ref.mark()});
          if (kind < 6) {
            // Any PI, inside the cone or not.
            const std::size_t i = rng.below(npi);
            const V3 v = values[rng.below(3)];
            restricted->assign_pi(0, i, v);
            full.assign_pi(0, i, v);
            ref.assign_pi(0, i, v);
          } else if (kind < 7) {
            const std::size_t i = rng.below(npi);
            restricted->clear_pi(0, i);
            full.clear_pi(0, i);
            ref.clear_pi(0, i);
          } else if (kind < 9) {
            const std::size_t i = rng.below(nff);
            const V3 v = values[rng.below(3)];
            restricted->assign_state(i, v);
            full.assign_state(i, v);
            ref.assign_state(i, v);
          } else {
            const std::size_t i = rng.below(nff);
            restricted->clear_state(i);
            full.clear_state(i);
            ref.clear_state(i);
          }
        }
        for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
          if (!restricted->in_cone(n)) continue;
          ASSERT_EQ(restricted->good(0, n), ref.good(0, n))
              << context << " node " << c.name(n);
        }
        ASSERT_EQ(restricted->extract_state(), ref.extract_state())
            << context;
        ASSERT_EQ(restricted->extract_vectors(), ref.extract_vectors())
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

    // The pool's model comes back unrestricted and agrees with the oracle.
    FrameModelHandle again = pool.acquire(std::nullopt, 1);
    EXPECT_EQ(pool.constructions(), 1u) << name;
    EXPECT_FALSE(again->restricted()) << name;
    ReferenceFrameModel ref(c, std::nullopt, 1);
    util::Rng ops(5);
    for (int op = 0; op < 8; ++op) {
      const std::size_t i = ops.below(npi);
      const V3 v = values[ops.below(3)];
      again->assign_pi(0, i, v);
      ref.assign_pi(0, i, v);
      expect_matches_reference(c, *again, ref,
                               name + " re-acquired op " + std::to_string(op));
    }
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
/// the search model as it found it, and the solutions that follow equal
/// those of a search that never minimized.
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
      FrameGoalSearch minimizing(c, goals, &pool);
      FrameGoalSearch plain(c, goals, &pool);
      SearchStats sm, sp;
      for (int k = 0; k < 8; ++k) {
        const std::string context = base + " solution " + std::to_string(k);
        const auto step = minimizing.next(deadline, 200, sm);
        ASSERT_EQ(step, plain.next(deadline, 200, sp)) << context;
        if (step != FrameGoalSearch::Step::kSolution) break;
        ++solutions;
        const FrameModel& m = minimizing.model();
        ASSERT_EQ(m.extract_state(), plain.model().extract_state()) << context;
        ASSERT_EQ(m.extract_vectors(), plain.model().extract_vectors())
            << context;

        const ModelSnapshot before = snapshot(c, m);
        minimizing.minimized_state();
        ASSERT_EQ(snapshot(c, m), before) << context;
      }
      EXPECT_EQ(sm.decisions, sp.decisions) << base;
      EXPECT_EQ(sm.backtracks, sp.backtracks) << base;
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
  // Dirty a model thoroughly: fault A, assignments, window growth.
  FrameModel reused(c, faults[0], 4);
  util::Rng rng(31);
  reused.extend();
  for (int i = 0; i < 6; ++i) {
    reused.assign_pi(static_cast<unsigned>(rng.below(2)), rng.below(npi),
                     rng.bit() ? V3::k1 : V3::k0);
  }
  // Reset to fault B must equal a fresh fault-B model everywhere.
  reused.reset(faults[1], 3);
  FrameModel fresh(c, faults[1], 3);
  ReferenceFrameModel ref(c, faults[1], 3);
  expect_matches_reference(c, reused, ref, "reset");
  expect_matches_reference(c, fresh, ref, "fresh");
  EXPECT_EQ(reused.trail_mark(), 0u);
  EXPECT_EQ(reused.stats().gate_evals, fresh.stats().gate_evals);
  EXPECT_EQ(reused.stats().events, fresh.stats().events);
  // And it must behave identically from here on.
  reused.assign_pi(0, 0, V3::k1);
  fresh.assign_pi(0, 0, V3::k1);
  ref.assign_pi(0, 0, V3::k1);
  expect_matches_reference(c, reused, ref, "reset after assign");
  expect_matches_reference(c, fresh, ref, "fresh after assign");
  EXPECT_EQ(reused.trail_mark(), fresh.trail_mark());
  EXPECT_EQ(reused.stats().gate_evals, fresh.stats().gate_evals);
  EXPECT_EQ(reused.stats().events, fresh.stats().events);
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
    const SearchRecord pooled = run_search(c, f, obs, &pool);
    const SearchRecord solo = run_search(c, f, obs, nullptr);
    EXPECT_EQ(pooled, solo) << c.name(f.node) << " pin " << f.pin;
  }
  // One model + one required_state scratch serve the whole fault list.
  EXPECT_LE(pool.constructions(), 2u);
  EXPECT_GE(pool.acquires(), faults.size());
}

}  // namespace
}  // namespace gatpg::atpg
