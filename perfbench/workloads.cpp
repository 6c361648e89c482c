#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "gen/registry.h"
#include "netlist/depth.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

// Backtrack ladder of the session workloads: kBacktracks in the first pass,
// ten times more in each later pass (the paper's ×10 escalation).
constexpr long kBacktracks = 3;
// Fig. 1 loop bound: alternative forward solutions tried per fault/pass.
constexpr unsigned kSolutionsPerFault = 2;
constexpr std::size_t kGradeVectors = 2048;

session::PassConfig pass(session::JustifyMode mode, long backtracks) {
  session::PassConfig p;
  p.mode = mode;
  p.time_limit_s = 0.0;
  p.pass_budget_s = 0.0;
  p.max_backtracks = backtracks;
  return p;
}

hybrid::HybridConfig base_config(std::uint64_t seed) {
  hybrid::HybridConfig cfg;
  cfg.seed = seed;
  cfg.max_solutions_per_fault = kSolutionsPerFault;
  cfg.parallel.threads = 1;
  cfg.target_parallel.lanes = 1;
  return cfg;
}

// Table I shape with wall-clock limits replaced by the backtrack ladder.
session::PassSchedule ga_hitec_schedule() {
  session::PassSchedule s;
  session::PassConfig p1 = pass(session::JustifyMode::kGenetic, kBacktracks);
  p1.ga_population = 64;
  p1.ga_generations = 4;
  p1.seq_len_multiplier = 4.0;
  session::PassConfig p2 =
      pass(session::JustifyMode::kGenetic, 10 * kBacktracks);
  p2.ga_population = 128;
  p2.ga_generations = 8;
  p2.seq_len_multiplier = 8.0;
  s.passes = {p1, p2,
              pass(session::JustifyMode::kDeterministic, 100 * kBacktracks)};
  return s;
}

session::PassSchedule hitec_schedule() {
  session::PassSchedule s;
  long b = kBacktracks;
  for (int i = 0; i < 3; ++i, b *= 10) {
    s.passes.push_back(pass(session::JustifyMode::kDeterministic, b));
  }
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ga-hitec", "hitec", "grade",
                                                 "hitec-lanes"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.config = base_config(seed);
  if (name == "ga-hitec") {
    w.circuit = "g298";
    w.config.schedule = ga_hitec_schedule();
    w.config.state_store.enabled = true;
    w.job_share_s = 1.1;
  } else if (name == "hitec" || name == "hitec-lanes") {
    w.circuit = "g526";
    w.config.schedule = hitec_schedule();
    w.job_share_s = 1.2;
    if (name == "hitec-lanes") {
      w.config.target_parallel.lanes = 3;
      w.serial_twin = "hitec";
      w.job_share_s = 0.5;
    }
  } else if (name == "grade") {
    w.circuit = "g5378";
    w.kind = Kind::kGrade;
    w.grade_vectors = kGradeVectors;
    // Only the traced run uses a schedule (a HITEC session over a sample
    // of the circuit's faults, see trace.cpp).
    w.config.schedule = hitec_schedule();
    w.job_share_s = 1.8;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::size_t jobs_per_run(const Workload& w, double seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / w.job_share_s)));
}

std::uint64_t job_seed(std::uint64_t seed, std::size_t k) {
  return seed * 0x9e3779b97f4a7c15ULL + k;
}

void require_wall_clock_free(const Workload& w) {
  for (const session::PassConfig& p : w.config.schedule.passes) {
    if (p.time_limit_s != 0.0 || p.pass_budget_s != 0.0) {
      throw std::invalid_argument("workload '" + w.name +
                                  "' has a wall-clock limit in its schedule");
    }
  }
}

sim::Sequence grade_sequence(const netlist::Circuit& c, std::size_t vectors,
                             std::uint64_t seed) {
  util::Rng rng(seed ^ 0x6772616465ULL);  // "grade"
  sim::Sequence seq(vectors, sim::Vector3(c.primary_inputs().size()));
  for (sim::Vector3& vec : seq) {
    for (sim::V3& v : vec) v = rng.bit() ? sim::V3::k1 : sim::V3::k0;
  }
  return seq;
}

fault::FaultSimConfig serial_faultsim() {
  fault::FaultSimConfig cfg;
  cfg.parallel.threads = 1;
  return cfg;
}

session::SessionConfig session_config(const hybrid::HybridConfig& config) {
  session::SessionConfig scfg;
  scfg.fault_model = config.fault_model;
  scfg.faultsim = config.faultsim;
  scfg.faultsim.parallel = config.parallel;
  scfg.state_store = config.state_store;
  scfg.target_parallel = config.target_parallel;
  return scfg;
}

SessionJob::SessionJob(const Workload& w, const netlist::Circuit& c,
                       fault::FaultList faults)
    : config_(w.config),
      rng_(config_.seed),
      session_(c, std::move(faults), session_config(config_)),
      engine_(c, config_, netlist::sequential_depth(c), rng_) {}

std::unique_ptr<Prepared> prepare(const Workload& w, SetupTimes& times) {
  util::Stopwatch sw;
  auto p = std::make_unique<Prepared>(gen::make_circuit(w.circuit));
  times.build_s = sw.seconds();
  sw.restart();
  p->faults = fault::collapse(p->circuit);
  times.collapse_s = sw.seconds();
  sw.restart();
  if (w.kind == Kind::kSession) {
    p->job = std::make_unique<SessionJob>(w, p->circuit, p->faults);
  } else {
    p->fsim = std::make_unique<fault::FaultSimulator>(
        p->circuit, p->faults.faults, serial_faultsim());
  }
  times.construct_s = sw.seconds();
  return p;
}

std::size_t regrade(const netlist::Circuit& c, const fault::FaultList& faults,
                    const sim::Sequence& test_set) {
  fault::FaultSimulator fsim(c, faults.faults, serial_faultsim());
  fsim.run(test_set);
  return fsim.detected_count();
}

bool same_result(const session::SessionResult& a,
                 const session::SessionResult& b) {
  const session::EngineCounters& x = a.counters;
  const session::EngineCounters& y = b.counters;
  const state::StateStoreStats& p = x.store;
  const state::StateStoreStats& q = y.store;
  return a.digests.faults == b.digests.faults &&
         a.digests.tests == b.digests.tests &&
         a.digests.store == b.digests.store &&
         a.detected() == b.detected() && a.untestable() == b.untestable() &&
         a.test_set.size() == b.test_set.size() &&
         x.targeted == y.targeted &&
         x.forward_solutions == y.forward_solutions &&
         x.ga_invocations == y.ga_invocations &&
         x.ga_successes == y.ga_successes &&
         x.det_justify_calls == y.det_justify_calls &&
         x.det_justify_successes == y.det_justify_successes &&
         x.verify_failures == y.verify_failures &&
         x.no_justification_needed == y.no_justification_needed &&
         x.aborted_faults == y.aborted_faults &&
         x.committed_tests == y.committed_tests &&
         x.det_decisions == y.det_decisions &&
         x.det_backtracks == y.det_backtracks &&
         x.det_gate_evals == y.det_gate_evals &&
         x.det_events == y.det_events &&
         x.det_model_builds == y.det_model_builds &&
         x.det_model_acquires == y.det_model_acquires &&
         p.seq_hits == q.seq_hits && p.seq_misses == q.seq_misses &&
         p.unjust_hits == q.unjust_hits &&
         p.ga_seeds_served == q.ga_seeds_served &&
         p.forward_cache_hits == q.forward_cache_hits;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec, so it would
  // report the launching interpreter's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  metrics.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  correct = false;
  ++failures;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Report::json() const {
  util::JsonWriter json;
  json.begin_object();
  json.field("correct", correct);
  json.field("attempted", attempted);
  json.field("failed", failed);
  json.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '.' ||
                    ch == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace perfbench
