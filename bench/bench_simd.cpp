// SIMD-wide fault-simulation bench (the tentpole metric of the wide-kernel
// rework): the differential session workload at group widths 1/2/4/8 words
// and 1/4 threads, measuring aggregate gate-evaluation throughput in
// slot-evals/sec (faulty-machine gate evaluations x 64 slots x width, over
// the sweep wall-clock).  Width 1 is the retained SequenceSimulator golden
// reference; every wider configuration must reproduce its detection lists
// (sets and order), good state, and persisted faulty states exactly — the
// identity check is embedded and the exit status is nonzero on any
// divergence, so CI can smoke-run this binary.
//
// Emits BENCH_simd.json with per-configuration wall-clock, gate evals,
// slot-eval throughput, and the throughput ratio vs width 1 at equal thread
// count, plus the acceptance summary: the best width>=4 throughput ratio on
// the largest circuit benched (target >= 2x).
//
// Usage: bench_simd [--seed=N] [--full] [--vectors=N] [--repeat=N]
//                   [names...]
//   default circuits: g298 g1423 g5378 (g5378 is the largest analog and the
//   acceptance-gate circuit).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "helpers_bench.h"
#include "sim/wide.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

struct SessionFingerprint {
  std::vector<std::vector<std::size_t>> newly;  // per chunk, in order
  std::size_t detected = 0;
  sim::State3 good_state;
  std::vector<sim::State3> fault_states;

  friend bool operator==(const SessionFingerprint&,
                         const SessionFingerprint&) = default;
};

struct Sample {
  unsigned width = 1;
  unsigned threads = 1;
  double run_s = 0.0;
  fault::SimStats stats;
  SessionFingerprint fp;
  bool identical = true;  // vs the width-1 sample at the same thread count

  /// Faulty-machine work actually performed: every wide gate evaluation
  /// computes 64 x width fault slots.
  double slot_evals() const {
    return static_cast<double>(stats.gate_evals) * 64.0 *
           static_cast<double>(width);
  }
  double throughput() const { return run_s > 0 ? slot_evals() / run_s : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options = bench::parse_options(
      argc, argv, &positional, {"--vectors=", "--repeat="});
  std::size_t vectors = 96;
  int repeat = 3;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--vectors=", 0) == 0) {
      vectors = bench::flag_value<std::size_t>(arg, "--vectors=");
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = bench::flag_value<int>(arg, "--repeat=");
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) names = {"g298", "g1423", "g5378"};
  const std::vector<unsigned> widths = {1, 2, 4, 8};
  const std::vector<unsigned> thread_counts = {1, 4};

  std::printf("SIMD-wide differential fault simulation (kernel backend: %s, "
              "vectors=%zu, repeat=%d, hardware_concurrency=%u)\n\n",
              sim::wide_kernels().name, vectors, repeat,
              util::ParallelConfig{}.resolved());

  bool identical = true;
  // Acceptance: best width>=4 throughput ratio on the last (largest)
  // circuit benched.
  double accept_ratio = 0.0;
  struct CircuitResult {
    std::string name;
    std::size_t faults = 0;
    std::vector<Sample> samples;
  };
  std::vector<CircuitResult> results;

  for (const std::string& name : names) {
    const auto c = gen::make_circuit(name);
    const auto faults = fault::collapse(c).faults;
    CircuitResult cr;
    cr.name = name;
    cr.faults = faults.size();

    for (const unsigned threads : thread_counts) {
      for (const unsigned width : widths) {
        Sample sample;
        sample.width = width;
        sample.threads = threads;
        fault::FaultSimConfig config;
        config.parallel.threads = threads;
        config.width = width;
        fault::FaultSimulator fs(c, faults, config);

        double run_s = 0.0;
        for (int rep = 0; rep < repeat; ++rep) {
          fs.reset_all();
          fs.reset_stats();
          sample.fp = SessionFingerprint{};
          util::Rng rng(options.seed);
          const util::Stopwatch sw;
          for (int chunk = 0; chunk < 4; ++chunk) {
            sample.fp.newly.push_back(
                fs.run(bench::random_sequence(c, rng, vectors / 4)));
          }
          run_s += sw.seconds();
        }
        sample.run_s = run_s / repeat;
        sample.stats = fs.stats();
        sample.fp.detected = fs.detected_count();
        sample.fp.good_state = fs.good_state();
        for (std::size_t i = 0; i < faults.size(); ++i) {
          sample.fp.fault_states.push_back(fs.fault_state(i));
        }
        cr.samples.push_back(std::move(sample));
      }
    }

    for (Sample& s : cr.samples) {
      const Sample* base = nullptr;
      for (const Sample& b : cr.samples) {
        if (b.width == 1 && b.threads == s.threads) base = &b;
      }
      if (base && base != &s) {
        s.identical = s.fp == base->fp;
        if (!s.identical) {
          std::printf("ERROR: %s width=%u threads=%u diverges from the "
                      "width-1 reference\n",
                      cr.name.c_str(), s.width, s.threads);
          identical = false;
        }
      }
      const double ratio =
          base && base->throughput() > 0 ? s.throughput() / base->throughput()
                                         : 1.0;
      std::printf("%-8s width=%u threads=%u  run=%9.2fms  "
                  "gate_evals=%11llu  slot_evals/s=%10.3e (x%.2f)  "
                  "det=%zu%s\n",
                  cr.name.c_str(), s.width, s.threads, s.run_s * 1e3,
                  static_cast<unsigned long long>(s.stats.gate_evals),
                  s.throughput(), ratio, s.fp.detected,
                  s.identical ? "" : "  [MISMATCH]");
    }
    std::printf("\n");
    results.push_back(std::move(cr));
  }

  // Acceptance ratio: widest-vs-1 throughput on the last circuit benched
  // (the largest by convention of the default list).
  if (!results.empty()) {
    const CircuitResult& last = results.back();
    for (const Sample& s : last.samples) {
      if (s.width < 4) continue;
      for (const Sample& b : last.samples) {
        if (b.width == 1 && b.threads == s.threads && b.throughput() > 0) {
          const double r = s.throughput() / b.throughput();
          if (r > accept_ratio) accept_ratio = r;
        }
      }
    }
  }

  FILE* json = std::fopen("BENCH_simd.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_simd.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"simd\",\n");
  std::fprintf(json, "  \"kernel_backend\": \"%s\",\n",
               sim::wide_kernels().name);
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
               util::ParallelConfig{}.resolved());
  std::fprintf(json, "  \"vectors\": %zu,\n  \"repeat\": %d,\n", vectors,
               repeat);
  std::fprintf(json, "  \"identical_across_widths\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(json, "  \"acceptance_circuit\": \"%s\",\n",
               results.empty() ? "" : results.back().name.c_str());
  std::fprintf(json,
               "  \"acceptance_throughput_ratio_width4plus\": %.3f,\n",
               accept_ratio);
  std::fprintf(json, "  \"circuits\": [\n");
  for (std::size_t ci = 0; ci < results.size(); ++ci) {
    const CircuitResult& cr = results[ci];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"faults\": %zu, \"results\": [\n",
                 cr.name.c_str(), cr.faults);
    for (std::size_t si = 0; si < cr.samples.size(); ++si) {
      const Sample& s = cr.samples[si];
      const Sample* base = nullptr;
      for (const Sample& b : cr.samples) {
        if (b.width == 1 && b.threads == s.threads) base = &b;
      }
      std::fprintf(
          json,
          "      {\"width\": %u, \"threads\": %u, \"run_s\": %.6f, "
          "\"gate_evals\": %llu, \"good_gate_evals\": %llu, "
          "\"slot_evals_per_s\": %.1f, \"throughput_ratio_vs_width1\": %.3f, "
          "\"speedup_vs_width1\": %.3f, \"detected\": %zu, "
          "\"identical\": %s}%s\n",
          s.width, s.threads, s.run_s,
          static_cast<unsigned long long>(s.stats.gate_evals),
          static_cast<unsigned long long>(s.stats.good_gate_evals),
          s.throughput(),
          base && base->throughput() > 0 ? s.throughput() / base->throughput()
                                         : 1.0,
          base && s.run_s > 0 ? base->run_s / s.run_s : 1.0, s.fp.detected,
          s.identical ? "true" : "false",
          si + 1 < cr.samples.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", ci + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("acceptance: width>=4 vs width-1 slot-eval throughput on %s: "
              "x%.2f (target >= 2)\n",
              results.empty() ? "?" : results.back().name.c_str(),
              accept_ratio);
  std::printf("wrote BENCH_simd.json%s\n",
              identical ? "" : " (INCONSISTENT RESULTS)");
  return identical ? 0 : 1;
}
