// Workload definitions and output checks of the end-to-end benchmark.
//
// Every workload is a pure function of (name, seed): wall-clock limits are
// zero in every pass, so the backtrack ladder, the GA population and
// generation counts and max_solutions_per_fault bound the work, and two
// runs with one seed do bit-identical work.  The session workloads drive
// session::Session + hybrid::HybridEngine; the grade workload drives one
// fault::FaultSimulator over a seeded pseudo-random sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/circuit.h"
#include "session/session.h"
#include "util/rng.h"

namespace perfbench {

using namespace gatpg;

enum class Kind { kSession, kGrade };

struct Workload {
  std::string name;
  std::string circuit;
  Kind kind = Kind::kSession;
  /// Engine config; its schedule is the pass ladder (for grade, the HITEC
  /// ladder of the session its traced run samples).
  hybrid::HybridConfig config;
  /// Grade workload: length of the pseudo-random sequence.
  std::size_t grade_vectors = 0;
  /// Name of the serial workload whose digests this one must reproduce
  /// (empty when it has none).
  std::string serial_twin;
  /// Share of the run length one job stands for; a run has
  /// round(seconds / job_share_s) jobs (see jobs_per_run).  Near one job's
  /// wall time on the 4-vCPU x86 host the benchmark was tuned on, and
  /// smaller where jobs vary more with the seed (ga-hitec), so that batch
  /// averages over more seeds.
  double job_share_s = 1.0;
};

/// Number of jobs one run of `w` executes: round(seconds / job_share_s),
/// at least one.  A function of the run length only, never of the measured
/// speed, so a seed always selects the same work.
std::size_t jobs_per_run(const Workload& w, double seconds);

/// Seed of job `k` of a run with workload seed `seed`.
std::uint64_t job_seed(std::uint64_t seed, std::size_t k);

/// Names of every workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The workload `name` with `seed` as its GA/X-fill (session) or sequence
/// (grade) seed.  Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Throws std::invalid_argument unless every pass of `w` is wall-clock free
/// (time_limit_s == 0 and pass_budget_s == 0).
void require_wall_clock_free(const Workload& w);

/// Fully specified pseudo-random input sequence of `vectors` vectors.
sim::Sequence grade_sequence(const netlist::Circuit& c, std::size_t vectors,
                             std::uint64_t seed);

/// The production fault-simulator defaults, serial.
fault::FaultSimConfig serial_faultsim();

/// A ready-to-run session: everything a session workload's setup builds.
/// The session and engine keep references into this object, so it is
/// neither copied nor moved.
class SessionJob {
 public:
  SessionJob(const Workload& w, const netlist::Circuit& c,
             fault::FaultList faults);
  SessionJob(const SessionJob&) = delete;
  SessionJob& operator=(const SessionJob&) = delete;

  session::SessionResult run() {
    return session_.run(engine_, config_.schedule);
  }
  session::Session& session() { return session_; }
  hybrid::HybridEngine& engine() { return engine_; }

 private:
  hybrid::HybridConfig config_;
  util::Rng rng_;
  session::Session session_;
  hybrid::HybridEngine engine_;
};

/// What one setup builds: the circuit, its collapsed fault list, and the
/// session job (session workloads) or fault simulator (grade).  Held by
/// pointer because the job and simulator keep references to the circuit.
struct Prepared {
  explicit Prepared(netlist::Circuit c) : circuit(std::move(c)) {}
  netlist::Circuit circuit;
  fault::FaultList faults;
  std::unique_ptr<SessionJob> job;
  std::unique_ptr<fault::FaultSimulator> fsim;
};

/// Wall time of each setup step.
struct SetupTimes {
  double build_s = 0.0;
  double collapse_s = 0.0;
  double construct_s = 0.0;
  double total() const { return build_s + collapse_s + construct_s; }
};

/// The timed setup: gen::make_circuit + fault::collapse + SessionJob (or
/// FaultSimulator) construction.
std::unique_ptr<Prepared> prepare(const Workload& w, SetupTimes& times);

/// Session config matching `config` (threads, fault sim, store, lanes).
session::SessionConfig session_config(const hybrid::HybridConfig& config);

/// Re-grades `test_set` from power-up on a fresh FaultSimulator and returns
/// the number of faults of `faults` it detects.
std::size_t regrade(const netlist::Circuit& c, const fault::FaultList& faults,
                    const sim::Sequence& test_set);

/// True when two session results carry identical digests and counters.
bool same_result(const session::SessionResult& a,
                 const session::SessionResult& b);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1] of `v` (0 for an empty vector).
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line every invocation prints last.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;    ///< jobs that failed an output check
  long failures = 0;  ///< failed checks (a job can fail several)
  std::vector<Metric> metrics;

  /// Throws std::invalid_argument unless valid_name(name).
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (printed to stderr).
  void fail(const std::string& what);
  /// One-line JSON: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

/// True when `name` is made only of [A-Za-z0-9_.-] and is non-empty.
bool valid_name(const std::string& name);

}  // namespace perfbench
