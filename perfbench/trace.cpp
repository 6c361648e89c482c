#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "atpg/detengine.h"
#include "atpg/justify.h"
#include "hybrid/ga_justify.h"
#include "netlist/depth.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

/// One span: a named interval with the span that caused it (-1 = root).
/// Times are microseconds since the recorder was created.
struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int tid = 1;
  double dur_us() const { return end_us - start_us; }
};

/// In-memory span store, written out as Chrome trace-event JSON at the end
/// of the run.
class SpanRecorder {
 public:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  int begin(std::string name, std::string layer, int parent, int tid) {
    spans_.push_back({std::move(name), std::move(layer), now_us(), 0.0,
                      parent, tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }
  int add(std::string name, std::string layer, double start_us,
          double end_us, int parent, int tid) {
    spans_.push_back({std::move(name), std::move(layer), start_us, end_us,
                      parent, tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Self time per layer, in seconds: each span's duration minus the part
  /// its children cover, summed over the layer's spans.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.dur_us();
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += (spans_[i].dur_us() - child_us[i]) * 1e-6;
    }
    return out;
  }

  bool write_chrome(const std::string& path, const std::string& workload,
                    std::uint64_t seed, const Report& summary) const {
    util::JsonWriter json;
    json.begin_object();
    json.key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.begin_object();
      json.field("name", s.name);
      json.field("cat", s.layer);
      json.field("ph", "X");
      json.field("ts", s.start_us);
      json.field("dur", s.dur_us());
      json.field("pid", 1);
      json.field("tid", s.tid);
      json.key("args").begin_object();
      json.field("id", i);
      json.field("parent", s.parent);
      json.end_object();
      json.end_object();
    }
    for (const auto& [tid, label] :
         {std::pair{1, "traced session"}, std::pair{2, "layer replay"}}) {
      json.begin_object();
      json.field("name", "thread_name");
      json.field("ph", "M");
      json.field("pid", 1);
      json.field("tid", tid);
      json.key("args").begin_object().field("name", label).end_object();
      json.end_object();
    }
    json.end_array();
    json.field("displayTimeUnit", "ms");
    json.key("otherData").begin_object();
    json.field("workload", workload);
    json.field("seed", seed);
    json.key("per_layer").begin_object();
    for (const Metric& m : summary.metrics) {
      json.key(m.name).begin_object();
      json.field("value", m.value);
      json.field("unit", m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    json.end_object();
    return json.write_file(path);
  }

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Counter snapshot at a pass boundary.
struct Counters {
  session::EngineCounters engine;
  fault::SimStats sim;
  hybrid::SpecStats spec;
};

/// Session -> pass -> target spans from the ProgressObserver hooks.  A
/// target span runs from the previous boundary (pass begin or the previous
/// target's end) to on_target_end, so it covers the target's search and its
/// commit.
class TracingObserver : public session::ProgressObserver {
 public:
  TracingObserver(SpanRecorder& rec, const hybrid::HybridEngine& engine)
      : rec_(rec), engine_(engine) {}

  void on_session_begin(const session::Session& /*s*/) override {
    session_span_ = rec_.begin("session", "session", -1, 1);
  }
  void on_pass_begin(const session::Session& s, std::size_t i,
                     const session::PassConfig& /*pass*/) override {
    pass_span_ = rec_.begin("pass " + std::to_string(i), "session.pass",
                            session_span_, 1);
    last_boundary_us_ = rec_.span(pass_span_).start_us;
    at_pass_begin_ = snapshot(s);
  }
  void on_target_end(const session::Session& /*s*/,
                     const session::TargetEffort& effort) override {
    const double now = rec_.now_us();
    rec_.add("target " + std::to_string(effort.fault_index), "session.target",
             last_boundary_us_, now, pass_span_, 1);
    target_s.push_back((now - last_boundary_us_) * 1e-6);
    last_boundary_us_ = now;
  }
  void on_pass_end(const session::Session& s, std::size_t /*i*/,
                   const session::PassOutcome& /*outcome*/) override {
    rec_.end(pass_span_);
    pass_s.push_back(rec_.span(pass_span_).dur_us() * 1e-6);
    const Counters now = snapshot(s);
    PassDelta d;
    d.targeted = now.engine.targeted - at_pass_begin_.engine.targeted;
    d.committed = now.engine.committed_tests -
                  at_pass_begin_.engine.committed_tests;
    d.faultsim_gate_evals = now.sim.gate_evals - at_pass_begin_.sim.gate_evals;
    d.det_gate_evals =
        now.engine.det_gate_evals - at_pass_begin_.engine.det_gate_evals;
    d.store_seq_hits =
        now.engine.store.seq_hits - at_pass_begin_.engine.store.seq_hits;
    d.speculated = now.spec.speculated - at_pass_begin_.spec.speculated;
    pass_deltas.push_back(d);
  }
  void on_session_end(const session::Session& /*s*/,
                      const session::SessionResult& /*r*/) override {
    rec_.end(session_span_);
    session_s = rec_.span(session_span_).dur_us() * 1e-6;
  }

  /// Per-pass counter deltas (printed; the summary keeps whole-run totals).
  struct PassDelta {
    long targeted = 0;
    long committed = 0;
    std::uint64_t faultsim_gate_evals = 0;
    long det_gate_evals = 0;
    long store_seq_hits = 0;
    long speculated = 0;
  };
  std::vector<PassDelta> pass_deltas;
  std::vector<double> pass_s;
  std::vector<double> target_s;
  double session_s = 0.0;

 private:
  Counters snapshot(const session::Session& s) const {
    Counters c;
    c.engine = s.counters();
    c.engine.store = s.state_store().stats();
    c.sim = s.simulator().stats();
    c.spec = engine_.spec_stats();
    return c;
  }

  SpanRecorder& rec_;
  const hybrid::HybridEngine& engine_;
  int session_span_ = -1;
  int pass_span_ = -1;
  double last_boundary_us_ = 0.0;
  Counters at_pass_begin_;
};

/// A finished session's snapshot carries no running engine, so it resumes
/// into this engine-less stand-in: Session::run then only replays the saved
/// pass rows, and the digests must come back unchanged.
class FinishedEngine : public session::Engine {
 public:
  const char* name() const override { return ""; }
  void run(session::Session& /*s*/, const session::PassConfig& /*pass*/,
           const util::Deadline& /*deadline*/) override {}
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The fault list the traced session and replay run on: the workload's own
/// list, or an evenly spread sample for the grade workload (whose timed call
/// never enters the ATPG layers; the sample keeps their metrics measured).
fault::FaultList traced_faults(const Workload& w, const fault::FaultList& all) {
  if (w.kind == Kind::kSession) return all;
  constexpr std::size_t kSample = 64;
  fault::FaultList out;
  for (std::size_t k = 0; k < kSample && k < all.size(); ++k) {
    const std::size_t i = k * all.size() / kSample;
    out.faults.push_back(all.faults[i]);
    out.class_sizes.push_back(all.class_sizes[i]);
  }
  return out;
}

/// Search limits of the workload's final pass, as HybridEngine derives them.
atpg::SearchLimits replay_limits(const hybrid::HybridConfig& cfg,
                                 unsigned depth) {
  atpg::SearchLimits limits;
  limits.time_limit_s = 0.0;
  limits.max_backtracks = cfg.schedule.passes.back().max_backtracks;
  limits.max_forward_frames = std::clamp(2 * std::max(1u, depth), 6u, 24u);
  limits.max_justify_depth = std::clamp(4 * std::max(1u, depth), 8u, 64u);
  return limits;
}

struct ReplayCounts {
  long forward_calls = 0, forward_solved = 0, forward_aborted = 0;
  atpg::SearchStats forward;
  long justify_calls = 0, justified = 0, unjustifiable = 0,
       justify_aborted = 0;
  atpg::SearchStats justify;
  long ga_calls = 0, ga_success = 0;
  std::size_t ga_evaluations = 0;
  long faultsim_calls = 0;
  std::size_t detections = 0;
  fault::SimStats sim;
};

/// ATPG layer replay: for every fault, the forward engine's first solution
/// and its required state, and each required state through deterministic
/// and GA justification.
void replay_atpg(const Workload& w, const netlist::Circuit& c,
                 const fault::FaultList& faults, SpanRecorder& rec,
                 ReplayCounts& n) {
  const unsigned depth = netlist::sequential_depth(c);
  const atpg::SearchLimits limits = replay_limits(w.config, depth);
  const auto obs = atpg::share_observation_distances(c);
  atpg::FrameModelPool pool(c);
  const util::Deadline unlimited = util::Deadline::unlimited();
  const hybrid::GaStateJustifier ga(c);
  const sim::State3 power_up(c.flip_flops().size(), sim::V3::kX);

  const int root = rec.begin("replay atpg", "replay", -1, 2);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const fault::Fault& f = faults.faults[i];
    const int fwd_span = rec.begin("forward", "atpg.forward", root, 2);
    atpg::ForwardEngine forward(c, f, limits, obs, &pool);
    const atpg::ForwardStatus status = forward.next_solution(unlimited);
    sim::State3 required;
    if (status == atpg::ForwardStatus::kSolved) {
      const int rs = rec.begin("required_state", "atpg.forward.required_state",
                               fwd_span, 2);
      required = forward.required_state();
      rec.end(rs);
    }
    rec.end(fwd_span);
    ++n.forward_calls;
    const atpg::SearchStats& fs = forward.stats();
    n.forward.decisions += fs.decisions;
    n.forward.backtracks += fs.backtracks;
    n.forward.gate_evals += fs.gate_evals;
    n.forward.events += fs.events;
    if (status == atpg::ForwardStatus::kSolved) ++n.forward_solved;
    if (status == atpg::ForwardStatus::kAborted) ++n.forward_aborted;
    const bool state_needed =
        std::any_of(required.begin(), required.end(),
                    [](sim::V3 v) { return v != sim::V3::kX; });
    if (!state_needed) continue;

    const int js = rec.begin("justify", "atpg.justify", root, 2);
    atpg::DeterministicJustifier det(c, limits, nullptr, &pool);
    const auto out = det.justify(required, unlimited);
    rec.end(js);
    ++n.justify_calls;
    n.justify.gate_evals += det.stats().gate_evals;
    n.justify.events += det.stats().events;
    n.justify.backtracks += det.stats().backtracks;
    using JS = atpg::DeterministicJustifier::Status;
    n.justified += out.status == JS::kJustified;
    n.unjustifiable += out.status == JS::kUnjustifiable;
    n.justify_aborted += out.status == JS::kAborted;

    // Table I pass-1 GA shape, from the power-up state.
    hybrid::GaJustifyConfig gcfg;
    gcfg.population = 64;
    gcfg.generations = 4;
    gcfg.sequence_length = std::max(4u, 4 * std::max(1u, depth));
    gcfg.parallel.threads = 1;
    gcfg.seed = w.config.seed ^ (0x9e3779b9ULL * (i + 1));
    const int gs = rec.begin("ga_justify", "hybrid.ga_justify", root, 2);
    const hybrid::GaJustifyResult g =
        ga.justify(f, required, required, power_up, gcfg, unlimited);
    rec.end(gs);
    ++n.ga_calls;
    n.ga_success += g.success;
    n.ga_evaluations += g.evaluations;
  }
  rec.end(root);
}

/// Fault-simulation replay: a fresh simulator over `segments` in order.
void replay_faultsim(const netlist::Circuit& c, const fault::FaultList& faults,
                     const std::vector<sim::Sequence>& segments,
                     SpanRecorder& rec, ReplayCounts& n) {
  const int root = rec.begin("replay faultsim", "replay", -1, 2);
  fault::FaultSimulator fsim(c, faults.faults, serial_faultsim());
  for (const sim::Sequence& seg : segments) {
    const int ss = rec.begin("run", "fault.faultsim", root, 2);
    n.detections += fsim.run(seg).size();
    rec.end(ss);
    ++n.faultsim_calls;
  }
  n.sim = fsim.stats();
  rec.end(root);
}

}  // namespace

void run_traced(const Workload& w, double seconds, const std::string& out_dir,
                Report& r) {
  std::filesystem::create_directories(out_dir);
  const std::string stem = out_dir + "/" + w.name + "-seed" +
                           std::to_string(w.config.seed);
  // The traced job is job 0 of the untraced run's batch.  Session
  // workloads trace themselves; grade traces a HITEC session over a fault
  // sample of its circuit (see traced_faults).
  const std::uint64_t seed0 = job_seed(w.config.seed, 0);
  Workload sw = make_workload(w.kind == Kind::kGrade ? "hitec" : w.name, seed0);
  sw.name = w.name;
  sw.circuit = w.circuit;

  SetupTimes t;
  std::vector<double> build_s, collapse_s;
  std::unique_ptr<Prepared> base;
  for (int i = 0; i < 5; ++i) {
    base = prepare(w, t);
    build_s.push_back(t.build_s);
    collapse_s.push_back(t.collapse_s);
  }
  const fault::FaultList faults = traced_faults(w, base->faults);
  const netlist::Circuit& c = base->circuit;

  // Untraced reference session, then untraced/traced pairs for `seconds`.
  SessionJob ref_job(sw, c, faults);
  const session::SessionResult ref = ref_job.run();
  ++r.attempted;
  if (regrade(c, faults, ref.test_set) != ref.detected()) {
    r.fail("re-grade of the traced workload's test set disagrees");
  }
  std::vector<double> plain_s, traced_s;
  SpanRecorder rec;
  std::unique_ptr<SessionJob> traced_job;
  std::unique_ptr<TracingObserver> observer;
  const util::Stopwatch window;
  do {
    {
      SessionJob job(sw, c, faults);
      const util::Stopwatch timer;
      const session::SessionResult res = job.run();
      plain_s.push_back(timer.seconds());
      ++r.attempted;
      if (!same_result(ref, res)) ++r.failed;
    }
    // Only the last traced session's spans are kept.
    rec = SpanRecorder();
    traced_job = std::make_unique<SessionJob>(sw, c, faults);
    observer = std::make_unique<TracingObserver>(rec, traced_job->engine());
    traced_job->session().set_observer(observer.get());
    const util::Stopwatch timer;
    const session::SessionResult res = traced_job->run();
    traced_s.push_back(timer.seconds());
    traced_job->session().set_observer(nullptr);
    ++r.attempted;
    if (!same_result(ref, res)) ++r.failed;
  } while (window.seconds() < seconds);
  if (r.failed > 0) r.fail("a repeated session differs from the first");

  // Snapshot round trip of the finished traced session.
  const std::string snapshot = stem + ".snapshot";
  const int ck = rec.begin("checkpoint", "serialize.checkpoint", -1, 2);
  traced_job->session().checkpoint(snapshot);
  rec.end(ck);
  const double archive_bytes =
      static_cast<double>(std::filesystem::file_size(snapshot));
  session::Session resumed(c, faults, session_config(sw.config));
  FinishedEngine finished;
  const int rs = rec.begin("resume", "serialize.resume", -1, 2);
  resumed.resume(snapshot, finished);
  rec.end(rs);
  if (!same_result(ref, resumed.run(finished, sw.config.schedule))) {
    r.fail("resuming the traced checkpoint does not reproduce the digests");
  }
  std::filesystem::remove(snapshot);

  // Layer replay: the session's committed segments, or the grade sequence
  // in 64 chunks over the whole fault list.
  std::vector<sim::Sequence> segments = ref.segments;
  double timed_call_s = median(plain_s);
  if (w.kind == Kind::kGrade) {
    const sim::Sequence seq = grade_sequence(c, w.grade_vectors, seed0);
    fault::FaultSimulator whole(c, base->faults.faults, serial_faultsim());
    const util::Stopwatch timer;
    whole.run(seq);
    timed_call_s = timer.seconds();
    segments.clear();
    const std::size_t chunk = std::max<std::size_t>(1, seq.size() / 64);
    for (std::size_t i = 0; i < seq.size(); i += chunk) {
      const auto first = seq.begin() + static_cast<std::ptrdiff_t>(i);
      segments.emplace_back(
          first, first + static_cast<std::ptrdiff_t>(
                             std::min(chunk, seq.size() - i)));
    }
  }
  ReplayCounts n;
  replay_atpg(sw, c, faults, rec, n);
  replay_faultsim(c, w.kind == Kind::kGrade ? base->faults : faults, segments,
                  rec, n);

  // Calls the timed call makes into each replayed layer: the session's own
  // counts, or for grade only the fault simulator (one call per chunk).
  const session::EngineCounters& k = ref.counters;
  const bool grade = w.kind == Kind::kGrade;
  const double session_forward = grade ? 0.0 : static_cast<double>(k.targeted);
  const double session_justify =
      grade ? 0.0 : static_cast<double>(k.det_justify_calls);
  const double session_ga = grade ? 0.0 : static_cast<double>(k.ga_invocations);
  const double session_faultsim =
      grade ? static_cast<double>(n.faultsim_calls)
            : static_cast<double>(k.committed_tests);

  const auto layers = rec.self_seconds();
  const auto self = [&](const std::string& layer) {
    const auto it = layers.find(layer);
    return it == layers.end() ? 0.0 : it->second;
  };
  const double fwd_self = self("atpg.forward");
  const double rs_self = self("atpg.forward.required_state");
  const double js_self = self("atpg.justify");
  const double ga_self = self("hybrid.ga_justify");
  const double fs_self = self("fault.faultsim");
  // Estimated time of each layer inside the timed call: replay cost per
  // call times the timed call's own call count.  The replay runs every call
  // at the final pass's limits, so estimates are normalized to sum to at
  // most the timed call's wall time.
  const auto estimate = [](double self_s, long calls, double session_calls) {
    return ratio(self_s, static_cast<double>(calls)) * session_calls;
  };
  const double est_fwd =
      estimate(fwd_self + rs_self, n.forward_calls, session_forward);
  const double est_js = estimate(js_self, n.justify_calls, session_justify);
  const double est_ga = estimate(ga_self, n.ga_calls, session_ga);
  const double est_fs = estimate(fs_self, n.faultsim_calls, session_faultsim);
  const double est_total =
      std::max(timed_call_s, est_fwd + est_js + est_ga + est_fs);
  const auto share = [&](double est) { return ratio(est, est_total); };

  r.add("atpg.forward.calls", n.forward_calls, "count");
  r.add("atpg.forward.self_s", fwd_self, "s");
  r.add("atpg.forward.required_state_s", rs_self, "s");
  r.add("atpg.forward.gate_evals", n.forward.gate_evals, "count");
  r.add("atpg.forward.events", n.forward.events, "count");
  r.add("atpg.forward.decisions", n.forward.decisions, "count");
  r.add("atpg.forward.backtracks", n.forward.backtracks, "count");
  r.add("atpg.forward.solved_ratio", ratio(n.forward_solved, n.forward_calls),
        "ratio");
  r.add("atpg.forward.aborted", n.forward_aborted, "count");
  r.add("atpg.forward.share",
        share(est_fwd), "ratio");

  r.add("atpg.justify.calls", n.justify_calls, "count");
  r.add("atpg.justify.self_s", js_self, "s");
  r.add("atpg.justify.gate_evals", n.justify.gate_evals, "count");
  r.add("atpg.justify.events", n.justify.events, "count");
  r.add("atpg.justify.backtracks", n.justify.backtracks, "count");
  r.add("atpg.justify.justified_ratio", ratio(n.justified, n.justify_calls),
        "ratio");
  r.add("atpg.justify.unjustifiable", n.unjustifiable, "count");
  r.add("atpg.justify.aborted", n.justify_aborted, "count");
  r.add("atpg.justify.share", share(est_js),
        "ratio");

  r.add("hybrid.ga_justify.calls", n.ga_calls, "count");
  r.add("hybrid.ga_justify.self_s", ga_self, "s");
  r.add("hybrid.ga_justify.evaluations", static_cast<double>(n.ga_evaluations),
        "count");
  r.add("hybrid.ga_justify.evals_per_s",
        ratio(static_cast<double>(n.ga_evaluations), ga_self), "1/s");
  r.add("hybrid.ga_justify.success_ratio", ratio(n.ga_success, n.ga_calls),
        "ratio");
  r.add("hybrid.ga_justify.share", share(est_ga),
        "ratio");

  r.add("fault.faultsim.calls", n.faultsim_calls, "count");
  r.add("fault.faultsim.self_s", fs_self, "s");
  r.add("fault.faultsim.gate_evals", static_cast<double>(n.sim.gate_evals),
        "count");
  r.add("fault.faultsim.good_gate_evals",
        static_cast<double>(n.sim.good_gate_evals), "count");
  r.add("fault.faultsim.skip_rate", n.sim.skip_rate(), "ratio");
  r.add("fault.faultsim.groups_repacked",
        static_cast<double>(n.sim.groups_repacked), "count");
  r.add("fault.faultsim.detections", static_cast<double>(n.detections),
        "count");
  r.add("fault.faultsim.share",
        share(est_fs), "ratio");

  r.add("hybrid.verify.verify_failures", k.verify_failures, "count");
  r.add("hybrid.verify.verify_failure_ratio",
        ratio(k.verify_failures, k.forward_solutions), "ratio");

  r.add("state.store.seq_hit_ratio",
        ratio(k.store.seq_hits, k.store.seq_hits + k.store.seq_misses),
        "ratio");
  r.add("state.store.unjust_hits", k.store.unjust_hits, "count");
  r.add("state.store.ga_seeds_served", k.store.ga_seeds_served, "count");
  r.add("state.store.forward_cache_hits", k.store.forward_cache_hits, "count");

  const hybrid::SpecStats& spec = traced_job->engine().spec_stats();
  r.add("hybrid.target_parallel.speculated", spec.speculated, "count");
  r.add("hybrid.target_parallel.committed", spec.committed, "count");
  r.add("hybrid.target_parallel.discarded", spec.discarded, "count");
  r.add("hybrid.target_parallel.commit_ratio",
        ratio(spec.committed, spec.speculated), "ratio");
  r.add("hybrid.target_parallel.wasted_gate_evals", spec.wasted_gate_evals,
        "count");

  for (std::size_t i = 0; i < 3; ++i) {
    r.add("session.pass" + std::to_string(i) + "_s",
          i < observer->pass_s.size() ? observer->pass_s[i] : 0.0, "s");
  }
  r.add("session.targeted", k.targeted, "count");
  r.add("session.committed_tests", k.committed_tests, "count");
  r.add("session.aborted_faults", k.aborted_faults, "count");
  r.add("session.target_p50_s", quantile(observer->target_s, 0.5), "s");
  r.add("session.target_p99_s", quantile(observer->target_s, 0.99), "s");
  r.add("session.model_builds", k.det_model_builds, "count");
  r.add("session.model_acquires", k.det_model_acquires, "count");

  r.add("serialize.checkpoint_s", rec.span(ck).dur_us() * 1e-6, "s");
  r.add("serialize.resume_s", rec.span(rs).dur_us() * 1e-6, "s");
  r.add("serialize.archive_bytes", archive_bytes, "bytes");
  r.add("netlist.build_s", median(build_s), "s");
  r.add("fault.collapse_s", median(collapse_s), "s");
  const double overhead = median(traced_s) - median(plain_s);
  r.add("trace.overhead_s", overhead, "s");

  double pass_sum = 0.0;
  for (const double p : observer->pass_s) pass_sum += p;
  std::printf("%s traced: %zu untraced / %zu traced sessions, median %.4f / "
              "%.4f s, overhead %.4f s\n",
              w.name.c_str(), plain_s.size(), traced_s.size(),
              median(plain_s), median(traced_s), overhead);
  std::printf("  session span %.4f s, pass spans sum %.4f s (gap %.6f s)\n",
              observer->session_s, pass_sum, observer->session_s - pass_sum);
  for (std::size_t i = 0; i < observer->pass_deltas.size(); ++i) {
    const auto& d = observer->pass_deltas[i];
    std::printf("  pass %zu: %.4f s, targeted=%ld committed=%ld "
                "det_gate_evals=%ld faultsim_gate_evals=%llu seq_hits=%ld "
                "speculated=%ld\n",
                i, observer->pass_s[i], d.targeted, d.committed,
                d.det_gate_evals,
                static_cast<unsigned long long>(d.faultsim_gate_evals),
                d.store_seq_hits, d.speculated);
  }
  std::printf("  %-18s %8s %10s %8s   (share of the timed call, %.4f s)\n",
              "layer", "calls", "self_s", "share", timed_call_s);
  for (const char* layer : {"atpg.forward", "atpg.justify", "hybrid.ga_justify",
                            "fault.faultsim"}) {
    const std::string l = layer;
    double calls = 0, self_s = 0, sh = 0;
    for (const Metric& m : r.metrics) {
      if (m.name == l + ".calls") calls = m.value;
      if (m.name == l + ".self_s") self_s = m.value;
      if (m.name == l + ".share") sh = m.value;
    }
    std::printf("  %-18s %8.0f %10.4f %8.4f\n", layer, calls, self_s, sh);
  }

  const std::string trace_path = stem + ".trace.json";
  if (!rec.write_chrome(trace_path, w.name, w.config.seed, r)) {
    r.fail("cannot write " + trace_path);
  } else {
    std::printf("  wrote %s\n", trace_path.c_str());
  }
}

}  // namespace perfbench
