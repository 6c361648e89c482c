// Fault-simulation bench: the Table-II session workload (several run()
// extensions with fault dropping) plus the what_if fitness kernel, at 1 and
// 4 threads.
//
// Emits BENCH_faultsim.json with wall-clock, gate-evaluation counts, skip
// rates, and repack counts per thread count.  Verifies on the way that
// every thread count produces the same detections and what_if results, and
// that each circuit's session detected set equals per-fault
// FaultSimulator::would_detect_from (the separate scalar single-fault path)
// from power-up over the concatenated session; exit status is nonzero on
// any mismatch.
//
// Usage: bench_faultsim [--seed=N] [--full] [--vectors=N] [--repeat=N]
//                       [--window=N] [names...]
//   --full adds the largest analog (g5378).
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "helpers_bench.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

constexpr int kChunks = 4;

struct Sample {
  unsigned threads = 0;
  double run_s = 0.0;      // session sweep (FaultSimulator::run)
  double what_if_s = 0.0;  // fitness kernel (FaultSimulator::what_if)
  fault::SimStats run_stats;
  std::vector<char> detected;
  std::size_t detected_count = 0;
  unsigned what_if_detected = 0;
  unsigned what_if_effects = 0;
};

struct CircuitResult {
  std::string name;
  std::size_t faults = 0;
  std::vector<Sample> samples;
};

/// The session's chunks: the same generator and seed the timed runs use.
std::vector<sim::Sequence> session_chunks(const netlist::Circuit& c,
                                          std::uint64_t seed,
                                          std::size_t vectors) {
  util::Rng rng(seed);
  std::vector<sim::Sequence> chunks;
  for (int k = 0; k < kChunks; ++k) {
    chunks.push_back(bench::random_sequence(c, rng, vectors / kChunks));
  }
  return chunks;
}

/// Faults whose single-fault check from power-up over the concatenated
/// session disagrees with the session's detected flags.
std::size_t would_detect_mismatches(const netlist::Circuit& c,
                                    const std::vector<fault::Fault>& faults,
                                    const std::vector<sim::Sequence>& chunks,
                                    const std::vector<char>& detected) {
  sim::Sequence all;
  for (const sim::Sequence& chunk : chunks) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  const sim::SequenceSimulator power_up(c);
  const sim::State3 all_x(c.flip_flops().size(), sim::V3::kX);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool single = fault::FaultSimulator::would_detect_from(
        c, power_up, all_x, faults[i], all);
    if (single != static_cast<bool>(detected[i])) ++mismatches;
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options = bench::parse_options(
      argc, argv, &positional, {"--vectors=", "--repeat=", "--window="});
  std::size_t vectors = 96;
  int repeat = 3;
  unsigned window = fault::FaultSimConfig{}.window;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--vectors=", 0) == 0) {
      vectors = bench::flag_value<std::size_t>(arg, "--vectors=");
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = bench::flag_value<int>(arg, "--repeat=");
    } else if (arg.rfind("--window=", 0) == 0) {
      window = bench::flag_value<unsigned>(arg, "--window=");
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"g298", "g526", "g820", "g1423"};
    if (options.full) names.push_back("g5378");
  }
  const std::vector<unsigned> thread_counts = {1, 4};

  std::printf("Fault simulation (vectors=%zu, repeat=%d, "
              "hardware_concurrency=%u)\n\n",
              vectors, repeat, util::ParallelConfig{}.resolved());

  bool consistent_threads = true;
  bool matches_would_detect = true;
  std::vector<CircuitResult> results;
  for (const std::string& name : names) {
    const auto c = gen::make_circuit(name);
    const auto faults = fault::collapse(c).faults;
    const auto chunks = session_chunks(c, options.seed, vectors);
    CircuitResult cr;
    cr.name = name;
    cr.faults = faults.size();

    std::vector<std::size_t> all_indices(faults.size());
    std::iota(all_indices.begin(), all_indices.end(), 0);

    for (const unsigned threads : thread_counts) {
      Sample sample;
      sample.threads = threads;
      fault::FaultSimConfig config;
      config.parallel.threads = threads;
      config.window = window;
      fault::FaultSimulator fs(c, faults, config);

      // Session sweep: fresh session per repeat, several run() extensions
      // so persistent faulty state, fault dropping, screening, and
      // repacking are exercised.
      double run_s = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        fs.reset_all();
        fs.reset_stats();
        const util::Stopwatch sw;
        for (const sim::Sequence& chunk : chunks) fs.run(chunk);
        run_s += sw.seconds();
        sample.detected = fs.detected();
        sample.detected_count = fs.detected_count();
        sample.run_stats = fs.stats();
      }
      sample.run_s = run_s / repeat;

      // Fitness kernel: what_if over the full fault list from the
      // power-up session state (the GA's per-candidate grading workload).
      fs.reset_all();
      util::Rng rng(options.seed + 7);
      const auto probe = bench::random_sequence(c, rng, vectors / kChunks);
      double what_if_s = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        const util::Stopwatch sw;
        const auto w = fs.what_if(all_indices, probe);
        what_if_s += sw.seconds();
        sample.what_if_detected = w.detected;
        sample.what_if_effects = w.state_effects;
      }
      sample.what_if_s = what_if_s / repeat;
      cr.samples.push_back(std::move(sample));
    }

    const Sample& base = cr.samples.front();
    const std::size_t mismatches =
        would_detect_mismatches(c, faults, chunks, base.detected);
    if (mismatches != 0) {
      std::printf("ERROR: %s: %zu fault(s) where the session disagrees with "
                  "would_detect_from over the concatenated session\n",
                  cr.name.c_str(), mismatches);
      matches_would_detect = false;
    }
    for (const Sample& s : cr.samples) {
      if (s.detected != base.detected ||
          s.what_if_detected != base.what_if_detected ||
          s.what_if_effects != base.what_if_effects) {
        std::printf("ERROR: %s threads=%u diverges from threads=%u "
                    "(det %zu vs %zu, what_if %u/%u vs %u/%u)\n",
                    cr.name.c_str(), s.threads, base.threads,
                    s.detected_count, base.detected_count, s.what_if_detected,
                    s.what_if_effects, base.what_if_detected,
                    base.what_if_effects);
        consistent_threads = false;
      }
      std::printf("%-8s threads=%u  run=%8.2fms  what_if=%8.2fms  "
                  "gate_evals=%11llu  skip=%5.1f%%  repacks=%llu  det=%zu\n",
                  cr.name.c_str(), s.threads, s.run_s * 1e3,
                  s.what_if_s * 1e3,
                  static_cast<unsigned long long>(s.run_stats.gate_evals +
                                                  s.run_stats.good_gate_evals),
                  s.run_stats.skip_rate() * 100.0,
                  static_cast<unsigned long long>(s.run_stats.groups_repacked),
                  s.detected_count);
    }
    std::printf("\n");
    results.push_back(std::move(cr));
  }

  util::JsonWriter json(util::JsonWriter::Style::kPretty);
  json.begin_object();
  json.field("bench", "faultsim");
  json.field("hardware_concurrency", util::ParallelConfig{}.resolved());
  json.field("vectors", vectors);
  json.field("repeat", repeat);
  json.field("consistent_across_threads", consistent_threads);
  json.field("matches_would_detect", matches_would_detect);
  json.key("circuits").begin_array();
  for (const CircuitResult& cr : results) {
    json.begin_object();
    json.field("name", cr.name);
    json.field("faults", cr.faults);
    json.key("results").begin_array();
    for (const Sample& s : cr.samples) {
      json.begin_object();
      json.field("threads", s.threads);
      json.field("run_s", s.run_s);
      json.field("what_if_s", s.what_if_s);
      json.field("gate_evals", s.run_stats.gate_evals);
      json.field("good_gate_evals", s.run_stats.good_gate_evals);
      json.field("group_vectors", s.run_stats.group_vectors);
      json.field("group_vectors_skipped", s.run_stats.group_vectors_skipped);
      json.field("skip_rate", s.run_stats.skip_rate());
      json.field("groups_repacked", s.run_stats.groups_repacked);
      json.field("detected", s.detected_count);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_faultsim.json")) {
    std::fprintf(stderr, "cannot write BENCH_faultsim.json\n");
    return 1;
  }
  const bool ok = consistent_threads && matches_would_detect;
  std::printf("wrote BENCH_faultsim.json%s\n",
              ok ? "" : " (INCONSISTENT RESULTS)");
  return ok ? 0 : 1;
}
