// Independent reference implementations for differential testing.
//
// Deliberately written in the most naive possible style (scalar, oblivious,
// recomputing everything every cycle) and sharing no evaluation code with
// src/sim — the production simulators are tested against these.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "netlist/circuit.h"
#include "sim/seqsim.h"

namespace gatpg::test {

/// Scalar 3-valued oblivious sequence simulator with optional fault
/// injection.  Returns per-cycle PO values and leaves the final state in
/// `final_state`.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const netlist::Circuit& c,
                              std::optional<fault::Fault> f = std::nullopt)
      : c_(c),
        faulted_(f.has_value()),
        fault_(f.value_or(fault::Fault{})),
        value_(c.node_count(), sim::V3::kX) {
    for (netlist::NodeId n = 0; n < c_.node_count(); ++n) {
      if (c_.type(n) == netlist::GateType::kConst0) value_[n] = sim::V3::k0;
      if (c_.type(n) == netlist::GateType::kConst1) value_[n] = sim::V3::k1;
    }
  }

  void set_state(const sim::State3& s) {
    const auto ffs = c_.flip_flops();
    for (std::size_t i = 0; i < ffs.size(); ++i) value_[ffs[i]] = s[i];
  }

  /// Transition-fault activity gating, mirroring the production two-frame
  /// launch/capture mapping: the combinational forcing sites (gate pins,
  /// frame-t D-pin capture) obey `set_fault_active`, while the value a
  /// flip-flop output presents *after* the clock edge obeys
  /// `set_latch_fault_active` (the activity of the next frame).  Both
  /// default true so stuck-at callers behave exactly as before.
  void set_fault_active(bool a) { active_ = a; }
  void set_latch_fault_active(bool a) { latch_active_ = a; }

  /// Applies one vector (combinational settle), returns PO values.
  std::vector<sim::V3> apply(const sim::Vector3& in) {
    const auto pis = c_.primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) value_[pis[i]] = in[i];
    force_stem_sources(active_);
    for (netlist::NodeId g : c_.topo_order()) value_[g] = eval(g);
    std::vector<sim::V3> po;
    for (netlist::NodeId p : c_.primary_outputs()) po.push_back(value_[p]);
    return po;
  }

  void clock() {
    const auto ffs = c_.flip_flops();
    std::vector<sim::V3> next(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      sim::V3 v = value_[c_.fanins(ffs[i])[0]];
      if (faulted_ && fault_.node == ffs[i] && fault_.pin == 0 && active_) {
        v = stuck_value();
      }
      if (faulted_ && fault_.node == ffs[i] &&
          fault_.pin == fault::kOutputPin && latch_active_) {
        v = stuck_value();
      }
      next[i] = v;
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) value_[ffs[i]] = next[i];
    force_stem_sources(latch_active_);
  }

  sim::V3 value(netlist::NodeId n) const { return value_[n]; }

  sim::State3 state() const {
    sim::State3 s;
    for (netlist::NodeId ff : c_.flip_flops()) s.push_back(value_[ff]);
    return s;
  }

 private:
  sim::V3 stuck_value() const {
    return fault_.stuck_at ? sim::V3::k1 : sim::V3::k0;
  }

  void force_stem_sources(bool gate) {
    if (!gate || !faulted_ || fault_.pin != fault::kOutputPin) return;
    const auto t = c_.type(fault_.node);
    if (!netlist::is_combinational(t)) value_[fault_.node] = stuck_value();
  }

  sim::V3 eval(netlist::NodeId g) const {
    using netlist::GateType;
    using sim::V3;
    std::vector<V3> in;
    const auto fanins = c_.fanins(g);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      V3 v = value_[fanins[p]];
      if (faulted_ && fault_.node == g && fault_.pin == static_cast<int>(p) &&
          active_) {
        v = stuck_value();
      }
      in.push_back(v);
    }
    V3 out = V3::kX;
    auto all = [&](V3 want) {
      for (V3 v : in) {
        if (v != want) return false;
      }
      return true;
    };
    auto any = [&](V3 want) {
      for (V3 v : in) {
        if (v == want) return true;
      }
      return false;
    };
    switch (c_.type(g)) {
      case GateType::kBuf:
        out = in[0];
        break;
      case GateType::kNot:
        out = sim::v3_not(in[0]);
        break;
      case GateType::kAnd:
      case GateType::kNand:
        out = any(V3::k0) ? V3::k0 : (all(V3::k1) ? V3::k1 : V3::kX);
        if (c_.type(g) == GateType::kNand) out = sim::v3_not(out);
        break;
      case GateType::kOr:
      case GateType::kNor:
        out = any(V3::k1) ? V3::k1 : (all(V3::k0) ? V3::k0 : V3::kX);
        if (c_.type(g) == GateType::kNor) out = sim::v3_not(out);
        break;
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = false, has_x = false;
        for (V3 v : in) {
          if (v == V3::kX) has_x = true;
          if (v == V3::k1) parity = !parity;
        }
        out = has_x ? V3::kX : (parity ? V3::k1 : V3::k0);
        if (c_.type(g) == GateType::kXnor) out = sim::v3_not(out);
        break;
      }
      default:
        out = V3::kX;
        break;
    }
    if (faulted_ && fault_.node == g && fault_.pin == fault::kOutputPin &&
        active_) {
      out = stuck_value();
    }
    return out;
  }

  const netlist::Circuit& c_;
  // A plain value plus a flag rather than std::optional<Fault>: GCC 12
  // reports -Wmaybe-uninitialized through every guarded optional read once
  // this class is inlined and copied.
  bool faulted_ = false;
  fault::Fault fault_;
  std::vector<sim::V3> value_;
  bool active_ = true;
  bool latch_active_ = true;
};

/// The good-machine line whose previous-frame value launches a transition
/// fault: the faulted node's own output for output faults, the driving line
/// for input-pin (branch) faults.
inline netlist::NodeId reference_launch_line(const netlist::Circuit& c,
                                             const fault::Fault& f) {
  return f.pin == fault::kOutputPin
             ? f.node
             : c.fanins(f.node)[static_cast<std::size_t>(f.pin)];
}

/// Ground-truth single-fault detection by reference simulation.  Transition
/// faults run the same lockstep loop with per-frame activity: a frame is a
/// capture frame iff the good machine's settled value of the launch line in
/// the *preceding* frame was defined-equal to the launch value (power-up and
/// X launches are inactive — the production simulators' under-approximation).
inline bool reference_detects(const netlist::Circuit& c, const fault::Fault& f,
                              const sim::Sequence& seq) {
  ReferenceSimulator good(c);
  ReferenceSimulator bad(c, f);
  const netlist::NodeId launch_line = reference_launch_line(c, f);
  const sim::V3 launch = f.stuck_at ? sim::V3::k1 : sim::V3::k0;
  bool act = !f.is_transition();  // transition: power-up frame cannot capture
  for (const auto& v : seq) {
    if (f.is_transition()) bad.set_fault_active(act);
    const auto gp = good.apply(v);
    const auto bp = bad.apply(v);
    for (std::size_t i = 0; i < gp.size(); ++i) {
      if (gp[i] != sim::V3::kX && bp[i] != sim::V3::kX && gp[i] != bp[i]) {
        return true;
      }
    }
    if (f.is_transition()) {
      act = good.value(launch_line) == launch;
      bad.set_latch_fault_active(act);
    }
    good.clock();
    bad.clock();
  }
  return false;
}

/// What one reference_session chunk produced, in the terms of
/// fault::FaultSimulator::run().
struct ReferenceChunk {
  /// Faults newly detected by the chunk, in the fault simulator's
  /// documented order: (pending position / 64, frame, pending position),
  /// where the pending position is the fault's index among the faults still
  /// undetected when the chunk started.
  std::vector<std::size_t> detected;
  /// Persisted faulty flip-flop state of every fault after the chunk.  A
  /// fault detected in this chunk keeps its pre-chunk state, and a fault
  /// detected earlier keeps the state it had then.
  std::vector<sim::State3> fault_states;
  /// Good-machine state after the chunk.
  sim::State3 good_state;
};

/// Counts of fault::FaultSimulator::what_if(): how many of the queried
/// faults the sequence would detect, and how many of the others it would
/// leave with a defined fault effect at some flip-flop at sequence end.
struct ReferenceWhatIf {
  unsigned detected = 0;
  unsigned state_effects = 0;
};

/// Reference model of a continuous fault-simulation session: one good
/// machine plus, per fault, a persisted faulty state and a transition
/// launch flag.  Each chunk is a scalar full sweep: every undetected fault
/// runs on its own lockstep good/faulty ReferenceSimulator pair over every
/// vector — no packing, no windows, no screening — so it shares nothing
/// with the production engine except the fault descriptors.
class ReferenceFaultSession {
 public:
  ReferenceFaultSession(const netlist::Circuit& c,
                        std::vector<fault::Fault> faults)
      : c_(c),
        faults_(std::move(faults)),
        good_(c),
        detected_(faults_.size(), false),
        states_(faults_.size(),
                sim::State3(c.flip_flops().size(), sim::V3::kX)),
        active_(faults_.size(), false) {
    // Stuck-at faults are always active; transition faults cannot capture
    // in the power-up frame.
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      active_[i] = !faults_[i].is_transition();
    }
  }

  /// Appends `seq` to the session (fault::FaultSimulator::run()).
  ReferenceChunk run(const sim::Sequence& seq) {
    ReferenceChunk out;
    std::vector<std::pair<std::size_t, std::size_t>> hits;  // (pos, frame)
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      if (!detected_[i]) pending.push_back(i);
    }
    for (std::size_t pos = 0; pos < pending.size(); ++pos) {
      const std::size_t i = pending[pos];
      sim::State3 state = states_[i];
      const std::optional<std::size_t> frame =
          play(faults_[i], good_, state, active_[i], seq);
      if (frame) {
        hits.emplace_back(pos, *frame);
      } else {
        states_[i] = std::move(state);
      }
    }
    std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
      if (a.first / 64 != b.first / 64) return a.first / 64 < b.first / 64;
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    for (const auto& [pos, frame] : hits) {
      detected_[pending[pos]] = true;
      out.detected.push_back(pending[pos]);
    }

    // Advance the session good machine; the launch flags of every fault
    // that was pending follow its last settled frame.
    for (std::size_t t = 0; t < seq.size(); ++t) {
      good_.apply(seq[t]);
      if (t + 1 == seq.size()) {
        for (const std::size_t i : pending) {
          const fault::Fault& f = faults_[i];
          if (!f.is_transition()) continue;
          active_[i] = good_.value(reference_launch_line(c_, f)) ==
                       (f.stuck_at ? sim::V3::k1 : sim::V3::k0);
        }
      }
      good_.clock();
    }
    out.fault_states = states_;
    out.good_state = good_.state();
    return out;
  }

  /// What appending `seq` would do to the faults of `fault_indices`
  /// (fault::FaultSimulator::what_if()); the session is not changed.
  ReferenceWhatIf what_if(std::span<const std::size_t> fault_indices,
                          const sim::Sequence& seq) const {
    ReferenceWhatIf out;
    ReferenceSimulator good_end = good_;
    for (const auto& v : seq) {
      good_end.apply(v);
      good_end.clock();
    }
    const sim::State3 good_final = good_end.state();
    for (const std::size_t i : fault_indices) {
      sim::State3 state = states_[i];
      if (play(faults_[i], good_, state, active_[i], seq)) {
        ++out.detected;
        continue;
      }
      for (std::size_t ff = 0; ff < state.size(); ++ff) {
        if (good_final[ff] != sim::V3::kX && state[ff] != sim::V3::kX &&
            good_final[ff] != state[ff]) {
          ++out.state_effects;
          break;
        }
      }
    }
    return out;
  }

 private:
  /// Runs fault `f` from `state` against a copy of `good_start` over `seq`,
  /// `active` being its capture activity in the first frame.  Returns the
  /// detecting frame, or nullopt with the final faulty state in `state`.
  std::optional<std::size_t> play(const fault::Fault& f,
                                  const ReferenceSimulator& good_start,
                                  sim::State3& state, bool active,
                                  const sim::Sequence& seq) const {
    ReferenceSimulator good = good_start;
    ReferenceSimulator bad(c_, f);
    bad.set_state(state);
    const netlist::NodeId line = reference_launch_line(c_, f);
    const sim::V3 launch = f.stuck_at ? sim::V3::k1 : sim::V3::k0;
    for (std::size_t t = 0; t < seq.size(); ++t) {
      bad.set_fault_active(active);
      const auto gp = good.apply(seq[t]);
      const auto bp = bad.apply(seq[t]);
      for (std::size_t p = 0; p < gp.size(); ++p) {
        if (gp[p] != sim::V3::kX && bp[p] != sim::V3::kX && gp[p] != bp[p]) {
          return t;
        }
      }
      if (f.is_transition()) active = good.value(line) == launch;
      bad.set_latch_fault_active(active);
      good.clock();
      bad.clock();
    }
    state = bad.state();
    return std::nullopt;
  }

  const netlist::Circuit& c_;
  std::vector<fault::Fault> faults_;
  ReferenceSimulator good_;
  std::vector<bool> detected_;
  std::vector<sim::State3> states_;
  std::vector<bool> active_;
};

/// A whole session of run() chunks on the reference model: one
/// ReferenceChunk per element of `chunks`.
inline std::vector<ReferenceChunk> reference_session(
    const netlist::Circuit& c, const std::vector<fault::Fault>& faults,
    const std::vector<sim::Sequence>& chunks) {
  ReferenceFaultSession session(c, faults);
  std::vector<ReferenceChunk> out;
  for (const sim::Sequence& seq : chunks) out.push_back(session.run(seq));
  return out;
}

/// what_if() over `fault_indices` after the session `prefix` of chunks.
inline ReferenceWhatIf reference_what_if(
    const netlist::Circuit& c, const std::vector<fault::Fault>& faults,
    const std::vector<sim::Sequence>& prefix,
    std::span<const std::size_t> fault_indices, const sim::Sequence& seq) {
  ReferenceFaultSession session(c, faults);
  for (const sim::Sequence& chunk : prefix) session.run(chunk);
  return session.what_if(fault_indices, seq);
}

}  // namespace gatpg::test
