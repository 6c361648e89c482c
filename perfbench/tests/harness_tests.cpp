// Harness tests of the end-to-end benchmark (no test framework needed):
//
//   python3 perfbench/run.py --test
//
// Exits non-zero and names the failed check when one fails.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <stdexcept>
#include <string>

#include "gen/registry.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

template <typename F>
bool throws_invalid_argument(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void names_are_valid() {
  for (const std::string& n : workload_names()) {
    check(valid_name(n), "workload name '" + n + "'");
  }
  // Every workload and metric name BENCHMARK.json declares (the printed
  // metric names are validated by Report::add as they are emitted).
  std::ifstream file("BENCHMARK.json");
  check(file.good(), "BENCHMARK.json is readable from the working directory");
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  const std::regex name_field("\"name\":\\s*\"([^\"]*)\"");
  std::size_t declared = 0;
  for (std::sregex_iterator it(text.begin(), text.end(), name_field), end;
       it != end; ++it, ++declared) {
    check(valid_name((*it)[1]), "BENCHMARK.json name '" + (*it)[1].str() + "'");
  }
  check(declared > 0, "BENCHMARK.json declares names");
  for (const std::string bad : {"", "run s", "a/b", "x:y", "p99%"}) {
    check(!valid_name(bad), "'" + bad + "' must be rejected");
  }
  Report r;
  check(throws_invalid_argument([&] { r.add("bad name", 1.0, "s"); }),
        "Report::add rejects an invalid metric name");
}

void grade_sequence_follows_seed() {
  const Workload w = make_workload("grade", 7);
  const netlist::Circuit c = gen::make_circuit(w.circuit);
  const sim::Sequence a = grade_sequence(c, 64, 7);
  check(a == grade_sequence(c, 64, 7), "same seed, same grade sequence");
  check(a != grade_sequence(c, 64, 8), "other seed, other grade sequence");
  for (const sim::Vector3& v : a) {
    for (const sim::V3 x : v) {
      check(x != sim::V3::kX, "grade sequence is fully specified");
    }
  }
  check(job_seed(7, 0) != job_seed(7, 1) && job_seed(7, 0) != job_seed(8, 0),
        "job seeds differ per job and per run seed");
  check(jobs_per_run(w, 20.0) == jobs_per_run(w, 20.0) &&
            jobs_per_run(w, 0.001) == 1,
        "job count depends only on the run length");
}

void regrade_catches_a_truncated_test_set() {
  Workload w = make_workload("hitec", 3);
  w.circuit = "s27";
  SetupTimes t;
  const auto p = prepare(w, t);
  const session::SessionResult res = p->job->run();
  check(res.detected() > 0 && !res.test_set.empty(), "s27 session detects");
  check(regrade(p->circuit, p->faults, res.test_set) == res.detected(),
        "re-grade of the full test set matches the session");
  sim::Sequence truncated = res.test_set;
  truncated.pop_back();
  check(regrade(p->circuit, p->faults, truncated) != res.detected(),
        "re-grade trips when the last vector is dropped");
}

void wall_clock_limits_are_rejected() {
  for (const std::string& n : workload_names()) {
    const Workload w = make_workload(n, 1);
    check(!throws_invalid_argument([&] { require_wall_clock_free(w); }),
          "workload '" + n + "' is wall-clock free");
  }
  Workload per_fault = make_workload("hitec", 1);
  per_fault.config.schedule.passes[1].time_limit_s = 0.5;
  check(throws_invalid_argument([&] { require_wall_clock_free(per_fault); }),
        "a per-fault time limit is rejected");
  Workload per_pass = make_workload("ga-hitec", 1);
  per_pass.config.schedule.passes[2].pass_budget_s = 2.0;
  check(throws_invalid_argument([&] { require_wall_clock_free(per_pass); }),
        "a pass budget is rejected");
  check(throws_invalid_argument([] { make_workload("no-such-workload", 1); }),
        "an unknown workload is rejected");
}

}  // namespace

int main() {
  names_are_valid();
  grade_sequence_follows_seed();
  regrade_catches_a_truncated_test_set();
  wall_clock_limits_are_rejected();
  if (failures == 0) std::printf("perfbench harness tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
