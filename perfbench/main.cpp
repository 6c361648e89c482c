// End-to-end benchmark entry point: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 runs a fixed batch of jobs (whole sessions, or gradings of a
// sequence) sized to take about S seconds, each with its own seed derived
// from N, times each with tracing off, and prints the end-to-end metrics.
// --trace 1 is the separate traced run: it prints the per-layer metrics and
// writes a Chrome trace-event file under DIR.  Either way the
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}, and outputs are checked (see README.md, "Output checks").
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "fault/faultsim.h"
#include "gen/registry.h"
#include "trace.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kSetupSamples = 15;

/// Rotates a serial workload's jobs over the CPUs this process may use:
/// job k runs pinned to the (k mod n)-th of them.  On a shared host each
/// vCPU sees its own, slowly changing contention, so a run that stays on
/// one vCPU measures that vCPU's luck; rotating makes every run sample all
/// of them.  Multi-threaded workloads are left unpinned.
class CpuRotation {
 public:
  explicit CpuRotation(const Workload& w) {
    if (w.config.target_parallel.lanes > 1 || w.config.parallel.threads != 1 ||
        sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }

  void pin_job(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// Checks of one session result: the test set re-graded from power-up
/// detects exactly the session's detected count, and (when `vs_twin`) a
/// workload with a serial twin reproduces the twin's digests and counters.
void check_session(const Workload& w, const Prepared& p,
                   const session::SessionResult& ref, bool vs_twin,
                   Report& r) {
  const std::size_t regraded = regrade(p.circuit, p.faults, ref.test_set);
  if (regraded != ref.detected()) {
    r.fail("re-grade of the test set detects " + std::to_string(regraded) +
           " faults, the session reported " + std::to_string(ref.detected()));
  }
  if (vs_twin && !w.serial_twin.empty()) {
    const Workload twin = make_workload(w.serial_twin, w.config.seed);
    SetupTimes t;
    const auto q = prepare(twin, t);
    if (!same_result(ref, q->job->run())) {
      r.fail(w.name + " does not reproduce the digests of " + twin.name);
    }
  }
}

/// Timing and quality accumulated over one run's job batch.
struct Batch {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  double coverage = 0.0;
  double efficiency = 0.0;
  double vectors = 0.0;

  void add_quality(std::size_t detected, std::size_t untestable,
                   std::size_t total, std::size_t test_vectors) {
    const double n = static_cast<double>(total);
    coverage += static_cast<double>(detected) / n;
    efficiency += static_cast<double>(detected + untestable) / n;
    vectors += static_cast<double>(test_vectors);
  }
  /// Adds the end-to-end metrics: medians of the job and setup times, and
  /// the batch mean of each quality metric.
  void report(const std::string& workload, Report& r) const {
    const double jobs = static_cast<double>(run_s.size());
    std::printf("%s: %zu jobs, run_s p25/p50/p75/max = %.4f/%.4f/%.4f/%.4f, "
                "setup_s p50 = %.6f over %zu setups\n",
                workload.c_str(), run_s.size(), quantile(run_s, 0.25),
                median(run_s), quantile(run_s, 0.75), quantile(run_s, 1.0),
                median(setup_s), setup_s.size());
    std::printf("  job times (s):");
    for (const double x : run_s) std::printf(" %.4f", x);
    std::printf("\n");
    r.add("run_s", median(run_s), "s");
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("fault_coverage", coverage / jobs, "ratio");
    r.add("fault_efficiency", efficiency / jobs, "ratio");
    r.add("test_vectors", vectors / jobs, "count");
  }
};

/// Setup-only repetitions, so setup_s is a median of many samples even
/// when the batch is short.
void sample_setups(const Workload& w, Batch& b) {
  SetupTimes t;
  for (int i = 0; i < kSetupSamples; ++i) {
    prepare(w, t);
    b.setup_s.push_back(t.total());
  }
}

void run_sessions(const Workload& w, double seconds, Report& r) {
  Batch b;
  sample_setups(w, b);
  SetupTimes t;
  // Untimed first session of job 0: warms caches and the allocator, and is
  // the reference the timed job 0 must reproduce bit for bit.
  const Workload w0 = make_workload(w.name, job_seed(w.config.seed, 0));
  const session::SessionResult ref = prepare(w0, t)->job->run();
  ++r.attempted;

  const std::size_t jobs = jobs_per_run(w, seconds);
  const CpuRotation rotation(w);
  for (std::size_t k = 0; k < jobs; ++k) {
    rotation.pin_job(k);
    const Workload wk = make_workload(w.name, job_seed(w.config.seed, k));
    const auto p = prepare(wk, t);
    b.setup_s.push_back(t.total());
    const util::Stopwatch sw;
    const session::SessionResult res = p->job->run();
    b.run_s.push_back(sw.seconds());
    ++r.attempted;
    const long failures_before = r.failures;
    // The serial twin costs a serial session; compare the first and last
    // jobs only.
    check_session(wk, *p, res, k == 0 || k + 1 == jobs, r);
    if (k == 0 && !same_result(ref, res)) {
      r.fail("repeating job 0 changed its digests or counters");
    }
    if (r.failures != failures_before) ++r.failed;
    b.add_quality(res.detected(), res.untestable(), res.total_faults,
                  res.test_set.size());
  }
  b.report(w.name, r);
}

/// Checks a grading result against independent single-fault simulations
/// from power-up for a spread sample of faults.
void check_grade(const Prepared& p, const sim::Sequence& seq, Report& r) {
  constexpr std::size_t kSample = 16;
  const std::vector<char>& detected = p.fsim->detected();
  const std::size_t n = detected.size();
  for (std::size_t k = 0; k < kSample; ++k) {
    const std::size_t i = k * n / kSample;
    const bool alone =
        fault::FaultSimulator::detects(p.circuit, p.faults.faults[i], seq);
    if (alone != (detected[i] != 0)) {
      r.fail("fault " + std::to_string(i) +
             ": bulk grading and single-fault simulation disagree");
    }
  }
}

void run_grade(const Workload& w, double seconds, Report& r) {
  Batch b;
  sample_setups(w, b);
  SetupTimes t;
  const netlist::Circuit c = gen::make_circuit(w.circuit);
  const auto sequence = [&](std::size_t k) {
    return grade_sequence(c, w.grade_vectors, job_seed(w.config.seed, k));
  };
  // Untimed first grading of job 0's sequence (warm-up and reference).
  const auto ref = prepare(w, t);
  ref->fsim->run(sequence(0));
  ++r.attempted;

  const std::size_t jobs = jobs_per_run(w, seconds);
  const CpuRotation rotation(w);
  for (std::size_t k = 0; k < jobs; ++k) {
    rotation.pin_job(k);
    const sim::Sequence seq = sequence(k);
    const auto p = prepare(w, t);
    b.setup_s.push_back(t.total());
    const util::Stopwatch sw;
    p->fsim->run(seq);
    b.run_s.push_back(sw.seconds());
    ++r.attempted;
    const long failures_before = r.failures;
    if (k == 0) {
      check_grade(*p, seq, r);
      if (p->fsim->detected() != ref->fsim->detected()) {
        r.fail("repeating job 0 detects a different fault set");
      }
    }
    if (r.failures != failures_before) ++r.failed;
    b.add_quality(p->fsim->detected_count(), 0, p->faults.size(), seq.size());
  }
  b.report(w.name, r);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload, args.seed);
    require_wall_clock_free(w);
    Report r;
    if (args.trace) {
      run_traced(w, args.seconds, args.out_dir, r);
    } else if (w.kind == Kind::kSession) {
      run_sessions(w, args.seconds, r);
    } else {
      run_grade(w, args.seconds, r);
    }
    std::printf("%s\n", r.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
