// Independent reference for atpg::FrameModel, the deterministic engine's
// time-frame-expanded circuit model.
//
// Written as naively as reference_sim.h and sharing no evaluation code with
// src/atpg: scalar V3 good and faulty planes per (frame, node), the PI and
// frame-0 state assignments, and after every change a full recomputation
// of every active frame in topological order.  The fault-effect queries are
// full scans.  It implements the semantics FrameModel documents:
//
// * Assignments write both planes; FF(t+1) = D(t) in each plane; the
//   frame-0 flip-flops hold the state assignment.
// * Stuck-at faults force the faulty plane at the stem (any node) or at one
//   gate input pin; a flip-flop D-pin fault forces the value latched into
//   frames >= 1.
// * Transition faults force the same sites only in frames whose good-plane
//   launch line held the launch value `skew` frames earlier (skew 2 for
//   flip-flop D-pin faults, 1 otherwise); an X launch merges the forced and
//   fault-free values; frames before the skew horizon are fault-free.
//
// The model keeps its own assignment log, so undo_to(mark) is checked
// independently of FrameModel's trail.  Like FrameModel::undo_to it
// restores assignments only; the caller restores the window size.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "netlist/circuit.h"
#include "sim/seqsim.h"

namespace gatpg::test {

class ReferenceFrameModel {
 public:
  struct FrontierGate {
    unsigned frame;
    netlist::NodeId node;
  };

  ReferenceFrameModel(const netlist::Circuit& c,
                      std::optional<fault::Fault> f, unsigned max_frames)
      : c_(c),
        faulted_(f.has_value()),
        fault_(f.value_or(fault::Fault{})),
        max_frames_(max_frames),
        pi_(max_frames, std::vector<sim::V3>(c.primary_inputs().size(),
                                             sim::V3::kX)),
        state_(c.flip_flops().size(), sim::V3::kX),
        good_(max_frames, std::vector<sim::V3>(c.node_count(), sim::V3::kX)),
        faulty_(good_) {
    recompute();
  }

  unsigned frame_count() const { return frames_; }

  bool extend() {
    if (frames_ >= max_frames_) return false;
    ++frames_;
    recompute();
    return true;
  }

  void set_frame_count(unsigned n) {
    frames_ = n;
    recompute();
  }

  void assign_pi(unsigned frame, std::size_t i, sim::V3 v) {
    log_.push_back({false, frame, i, pi_[frame][i]});
    pi_[frame][i] = v;
    recompute();
  }
  void clear_pi(unsigned frame, std::size_t i) {
    assign_pi(frame, i, sim::V3::kX);
  }
  void assign_state(std::size_t i, sim::V3 v) {
    log_.push_back({true, 0, i, state_[i]});
    state_[i] = v;
    recompute();
  }
  void clear_state(std::size_t i) { assign_state(i, sim::V3::kX); }

  sim::V3 pi_value(unsigned frame, std::size_t i) const {
    return pi_[frame][i];
  }
  sim::V3 state_value(std::size_t i) const { return state_[i]; }

  /// Position in the assignment log; undo_to(mark) restores every
  /// assignment made since.
  std::size_t mark() const { return log_.size(); }
  void undo_to(std::size_t mark) {
    while (log_.size() > mark) {
      const LogEntry e = log_.back();
      log_.pop_back();
      if (e.is_state) {
        state_[e.index] = e.old_value;
      } else {
        pi_[e.frame][e.index] = e.old_value;
      }
    }
    recompute();
  }

  sim::V3 good(unsigned frame, netlist::NodeId n) const {
    return good_[frame][n];
  }
  sim::V3 faulty(unsigned frame, netlist::NodeId n) const {
    return faulty_[frame][n];
  }

  bool po_has_d() const {
    for (unsigned t = 0; t < frames_; ++t) {
      for (netlist::NodeId po : c_.primary_outputs()) {
        if (is_d(t, po)) return true;
      }
    }
    return false;
  }

  bool d_reaches_ff_input(unsigned frame) const {
    for (netlist::NodeId ff : c_.flip_flops()) {
      if (is_d(frame, c_.fanins(ff)[0])) return true;
    }
    return false;
  }

  /// Combinational gates with an X in either plane and a D/D̄ fanin, in
  /// (frame, topological position) order.
  std::vector<FrontierGate> d_frontier() const {
    std::vector<FrontierGate> out;
    for (unsigned t = 0; t < frames_; ++t) {
      for (netlist::NodeId g : c_.topo_order()) {
        if (good_[t][g] != sim::V3::kX && faulty_[t][g] != sim::V3::kX) {
          continue;
        }
        for (netlist::NodeId in : c_.fanins(g)) {
          if (is_d(t, in)) {
            out.push_back({t, g});
            break;
          }
        }
      }
    }
    return out;
  }

  sim::Sequence extract_vectors() const {
    return sim::Sequence(pi_.begin(), pi_.begin() + frames_);
  }
  sim::State3 extract_state() const { return state_; }

 private:
  struct LogEntry {
    bool is_state;
    unsigned frame;
    std::size_t index;
    sim::V3 old_value;
  };

  /// Whether the fault's forcing applies in `frame`: 1 forced, 0 fault-free,
  /// 2 unknown (X launch: merge).  Stuck-at faults are always forced.
  int activity(unsigned frame) const {
    if (!fault_.is_transition()) return 1;
    const bool dff_d_pin =
        fault_.pin == 0 && c_.type(fault_.node) == netlist::GateType::kDff;
    const unsigned skew = dff_d_pin ? 2 : 1;
    if (frame < skew) return 0;
    const netlist::NodeId launch_line =
        fault_.pin == fault::kOutputPin
            ? fault_.node
            : c_.fanins(fault_.node)[static_cast<std::size_t>(fault_.pin)];
    const sim::V3 launch = good_[frame - skew][launch_line];
    if (launch == sim::V3::kX) return 2;
    return launch == (fault_.stuck_at ? sim::V3::k1 : sim::V3::k0) ? 1 : 0;
  }

  sim::V3 force(sim::V3 normal, unsigned frame) const {
    const sim::V3 forced = fault_.stuck_at ? sim::V3::k1 : sim::V3::k0;
    switch (activity(frame)) {
      case 1:
        return forced;
      case 0:
        return normal;
      default:
        return normal == forced ? normal : sim::V3::kX;
    }
  }

  /// Good and faulty both binary and different.
  bool is_d(unsigned frame, netlist::NodeId n) const {
    const sim::V3 g = good_[frame][n];
    const sim::V3 f = faulty_[frame][n];
    return g != sim::V3::kX && f != sim::V3::kX && g != f;
  }

  bool stem_fault_at(netlist::NodeId n) const {
    return faulted_ && fault_.node == n && fault_.pin == fault::kOutputPin;
  }

  static sim::V3 eval(netlist::GateType type, const std::vector<sim::V3>& in) {
    using netlist::GateType;
    using sim::V3;
    int ones = 0;
    int zeros = 0;
    for (V3 v : in) {
      if (v == V3::k1) ++ones;
      if (v == V3::k0) ++zeros;
    }
    const int n = static_cast<int>(in.size());
    const bool has_x = ones + zeros < n;
    V3 out = V3::kX;
    switch (type) {
      case GateType::kBuf:
        out = in[0];
        break;
      case GateType::kNot:
        out = sim::v3_not(in[0]);
        break;
      case GateType::kAnd:
      case GateType::kNand:
        out = zeros > 0 ? V3::k0 : (ones == n ? V3::k1 : V3::kX);
        if (type == GateType::kNand) out = sim::v3_not(out);
        break;
      case GateType::kOr:
      case GateType::kNor:
        out = ones > 0 ? V3::k1 : (zeros == n ? V3::k0 : V3::kX);
        if (type == GateType::kNor) out = sim::v3_not(out);
        break;
      case GateType::kXor:
      case GateType::kXnor:
        out = has_x ? V3::kX : (ones % 2 == 1 ? V3::k1 : V3::k0);
        if (type == GateType::kXnor) out = sim::v3_not(out);
        break;
      default:
        break;
    }
    return out;
  }

  void recompute() {
    using netlist::GateType;
    for (unsigned t = 0; t < frames_; ++t) {
      auto& g = good_[t];
      auto& f = faulty_[t];
      for (netlist::NodeId n = 0; n < c_.node_count(); ++n) {
        switch (c_.type(n)) {
          case GateType::kConst0:
            g[n] = f[n] = sim::V3::k0;
            break;
          case GateType::kConst1:
            g[n] = f[n] = sim::V3::k1;
            break;
          case GateType::kInput:
            g[n] = f[n] = pi_[t][static_cast<std::size_t>(c_.pi_index(n))];
            break;
          case GateType::kDff:
            if (t == 0) {
              g[n] = f[n] = state_[static_cast<std::size_t>(c_.ff_index(n))];
            } else {
              const netlist::NodeId d = c_.fanins(n)[0];
              g[n] = good_[t - 1][d];
              f[n] = faulty_[t - 1][d];
              if (faulted_ && fault_.node == n && fault_.pin == 0) {
                f[n] = force(f[n], t);
              }
            }
            break;
          default:
            continue;  // combinational: evaluated below
        }
        if (stem_fault_at(n)) f[n] = force(f[n], t);
      }
      for (netlist::NodeId n : c_.topo_order()) {
        const auto fanins = c_.fanins(n);
        gin_.clear();
        fin_.clear();
        for (std::size_t p = 0; p < fanins.size(); ++p) {
          gin_.push_back(g[fanins[p]]);
          sim::V3 v = f[fanins[p]];
          if (faulted_ && fault_.node == n &&
              fault_.pin == static_cast<int>(p)) {
            v = force(v, t);
          }
          fin_.push_back(v);
        }
        g[n] = eval(c_.type(n), gin_);
        f[n] = eval(c_.type(n), fin_);
        if (stem_fault_at(n)) f[n] = force(f[n], t);
      }
    }
  }

  const netlist::Circuit& c_;
  // A plain value plus a flag rather than std::optional<Fault>, as in
  // reference_sim.h (GCC 12 -Wmaybe-uninitialized false positives).
  bool faulted_;
  fault::Fault fault_;
  unsigned max_frames_;
  unsigned frames_ = 1;
  std::vector<std::vector<sim::V3>> pi_;  // [frame][pi]
  sim::State3 state_;                     // [ff]
  std::vector<std::vector<sim::V3>> good_;
  std::vector<std::vector<sim::V3>> faulty_;
  std::vector<LogEntry> log_;
  std::vector<sim::V3> gin_, fin_;  // one gate's good/faulty fanin values
};

}  // namespace gatpg::test
