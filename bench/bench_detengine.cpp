// Deterministic per-fault engine storage/implication bench (the tentpole
// metric of the FrameModel rework): for each circuit a sample of collapsed
// faults is driven through ForwardEngine::next_solution (plus the
// required_state minimization of every solved fault) under three
// configurations with identical limits and an unlimited deadline, so all
// modes perform exactly the same search:
//
//   oblivious  — full re-simulation reference, legacy nested-vector layout
//   legacy     — incremental implication, legacy nested-vector layout,
//                one FrameModel construction per fault (the pre-rework
//                production configuration)
//   flat       — incremental implication, flat composite-byte layout, with
//                a shared FrameModelPool so per-fault models are
//                reset-and-reused (the current production configuration)
//
// Emits BENCH_detengine.json with wall-clock, decisions/sec, gate-eval and
// event counts per mode, the gate-evals-per-decision reduction of the
// incremental engine, the flat-vs-legacy wall-clock speedup, and the pool's
// construction/acquire tallies (constructions ≪ acquires proves reuse).
// Verifies on the way that per-fault status, decision and backtrack counts,
// vectors, and minimized required states are bit-identical across all three
// modes and that the deterministic counters (gate_evals, events) of the
// flat layout exactly match the legacy layout; exit status is nonzero on
// any mismatch.
//
// A second phase benches speculative parallel fault targeting (DESIGN.md
// §4j): each circuit runs a backtrack-bounded hybrid session serially and
// at --threads=N lanes, verifies the two results are bit-identical (the
// in-order-commit determinism contract), and records the lane path's
// speculation ledger — speculated / committed / discarded tasks and the
// wasted gate evaluations of discarded work — plus the serial/parallel
// wall-clock ratio and the host's hardware_concurrency (so the checker
// knows when the speedup figure was measured without enough cores to
// mean anything).
//
// Usage: bench_detengine [--seed=N] [--full] [--threads=N] [--max-faults=N]
//                        [--backtracks=N] [--solutions=N] [--repeat=N]
//                        [names...]
//   --full adds the largest analog (g5378); --threads sets the speculative
//   lane count of the targeting phase (default 4).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "atpg/detengine.h"
#include "common.h"
#include "fault/faultlist.h"
#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "session/session.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

struct ModeSpec {
  const char* key;  // JSON/report identifier
  bool incremental;
  bool flat;
  bool pooled;
};

constexpr ModeSpec kModes[] = {
    {"oblivious", false, false, false},
    {"incremental-legacy", true, false, false},
    {"incremental-flat-pooled", true, true, true},
};
constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

struct FaultResult {
  atpg::ForwardStatus status = atpg::ForwardStatus::kAborted;
  unsigned solutions = 0;
  long decisions = 0;
  long backtracks = 0;
  std::vector<sim::Sequence> vectors;
  std::vector<sim::State3> states;

  bool operator==(const FaultResult&) const = default;
};

struct Sample {
  const ModeSpec* mode = nullptr;
  double wall_s = 0.0;
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;
  long events = 0;
  std::size_t solved = 0;
  std::size_t untestable = 0;
  // Pool tallies (pooled mode only; zero otherwise).
  std::size_t model_builds = 0;
  std::size_t model_acquires = 0;

  double evals_per_decision() const {
    return decisions > 0
               ? static_cast<double>(gate_evals) /
                     static_cast<double>(decisions)
               : 0.0;
  }
  double decisions_per_s() const {
    return wall_s > 0 ? static_cast<double>(decisions) / wall_s : 0.0;
  }
};

struct CircuitResult {
  std::string name;
  std::size_t faults = 0;
  std::size_t sampled = 0;
  Sample samples[kModeCount];
  bool identical = true;

  const Sample& oblivious() const { return samples[0]; }
  const Sample& legacy() const { return samples[1]; }
  const Sample& flat() const { return samples[2]; }

  double eval_reduction() const {
    return legacy().gate_evals > 0
               ? static_cast<double>(oblivious().gate_evals) /
                     static_cast<double>(legacy().gate_evals)
               : 0.0;
  }
  /// Wall-clock speedup of the reworked layout+pool over the pre-rework
  /// incremental configuration (same implication engine, same search).
  double flat_speedup() const {
    return flat().wall_s > 0 ? legacy().wall_s / flat().wall_s : 0.0;
  }
  /// The flat layout must not change what the engine computes: its
  /// deterministic effort counters match the legacy layout exactly.
  bool counters_unchanged() const {
    return legacy().gate_evals == flat().gate_evals &&
           legacy().events == flat().events &&
           legacy().decisions == flat().decisions &&
           legacy().backtracks == flat().backtracks;
  }
};

/// Runs one fault to completion (bounded by the backtrack budget and the
/// per-fault solution cap) and records everything the identity check
/// compares.  The unlimited deadline keeps the search deterministic: all
/// modes clip on exactly the same backtrack count, never on wall clock.
FaultResult run_fault(const netlist::Circuit& c, const fault::Fault& f,
                      const atpg::SearchLimits& limits,
                      const atpg::ObsDistances& obs, unsigned max_solutions,
                      atpg::FrameModelPool* pool, Sample& sample) {
  FaultResult r;
  atpg::ForwardEngine engine(c, f, limits, obs, pool);
  const auto deadline = util::Deadline::unlimited();
  for (unsigned s = 0; s < max_solutions; ++s) {
    r.status = engine.next_solution(deadline);
    if (r.status != atpg::ForwardStatus::kSolved) break;
    ++r.solutions;
    r.vectors.push_back(engine.vectors());
    r.states.push_back(engine.required_state());
  }
  const atpg::SearchStats& st = engine.stats();
  r.decisions = st.decisions;
  r.backtracks = st.backtracks;
  sample.decisions += st.decisions;
  sample.backtracks += st.backtracks;
  sample.gate_evals += st.gate_evals;
  sample.events += st.events;
  if (r.solutions > 0) ++sample.solved;
  if (r.status == atpg::ForwardStatus::kUntestable) ++sample.untestable;
  return r;
}

// ---------------------------------------------------------------------------
// Phase 2: speculative parallel fault targeting (serial vs N lanes).

/// Backtrack-bounded GA+deterministic schedule — no wall-clock limits, the
/// shape the speculative lane path accepts, so serial and lane runs are a
/// pure function of (circuit, fault list, seed) and comparable bit for bit.
hybrid::HybridConfig targeting_config(unsigned lanes, std::uint64_t seed,
                                      long backtracks) {
  hybrid::HybridConfig cfg;
  session::PassConfig ga;
  ga.mode = session::JustifyMode::kGenetic;
  ga.time_limit_s = 0.0;
  ga.max_backtracks = backtracks;
  ga.ga_population = 64;
  ga.ga_generations = 2;
  ga.seq_len_multiplier = 2.0;
  session::PassConfig det;
  det.mode = session::JustifyMode::kDeterministic;
  det.time_limit_s = 0.0;
  det.max_backtracks = backtracks;
  cfg.schedule.passes = {ga, det};
  cfg.max_solutions_per_fault = 4;
  cfg.seed = seed;
  cfg.parallel.threads = 1;
  cfg.state_store.enabled = true;
  cfg.target_parallel.lanes = lanes;
  return cfg;
}

struct TargetSample {
  unsigned lanes = 1;
  double wall_s = 0.0;
  hybrid::SpecStats spec;
  session::SessionResult result;
};

TargetSample run_targeting(const netlist::Circuit& c,
                           const fault::FaultList& faults, unsigned lanes,
                           std::uint64_t seed, long backtracks, int repeat) {
  const hybrid::HybridConfig cfg = targeting_config(lanes, seed, backtracks);
  session::SessionConfig scfg;
  scfg.faultsim = cfg.faultsim;
  scfg.faultsim.parallel = cfg.parallel;
  scfg.state_store = cfg.state_store;
  scfg.target_parallel = cfg.target_parallel;
  TargetSample out;
  out.lanes = lanes;
  for (int rep = 0; rep < repeat; ++rep) {
    session::Session s(c, faults, scfg);
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
    const util::Stopwatch sw;
    session::SessionResult result = s.run(engine, cfg.schedule);
    const double elapsed = sw.seconds();
    // Min across repeats (noise only adds time); the counters and the
    // speculation ledger are kept from the last repeat — the task counts
    // are deterministic, only wasted_gate_evals varies with how far a
    // discarded lane got before noticing the cancel flag.
    out.wall_s = rep == 0 ? elapsed : std::min(out.wall_s, elapsed);
    out.spec = engine.spec_stats();
    out.result = std::move(result);
  }
  return out;
}

/// The determinism contract of DESIGN.md §4j, checked on the bench's own
/// runs: every output bit of the lane run equals the serial run.
bool targeting_identical(const session::SessionResult& a,
                         const session::SessionResult& b) {
  return a.digests.faults == b.digests.faults &&
         a.digests.tests == b.digests.tests &&
         a.digests.store == b.digests.store &&
         a.fault_state == b.fault_state && a.test_set == b.test_set &&
         a.segments == b.segments &&
         a.counters.committed_tests == b.counters.committed_tests &&
         a.counters.det_gate_evals == b.counters.det_gate_evals;
}

const char* status_name(atpg::ForwardStatus s) {
  switch (s) {
    case atpg::ForwardStatus::kSolved:
      return "solved";
    case atpg::ForwardStatus::kUntestable:
      return "untestable";
    case atpg::ForwardStatus::kExhausted:
      return "exhausted";
    case atpg::ForwardStatus::kAborted:
      return "aborted";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options = bench::parse_options(
      argc, argv, &positional,
      {"--max-faults=", "--backtracks=", "--solutions=", "--repeat="});
  std::size_t max_faults = 160;
  long backtracks = 300;
  unsigned max_solutions = 3;
  int repeat = 2;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--max-faults=", 0) == 0) {
      max_faults = bench::flag_value<std::size_t>(arg, "--max-faults=");
    } else if (arg.rfind("--backtracks=", 0) == 0) {
      backtracks = bench::flag_value<long>(arg, "--backtracks=");
    } else if (arg.rfind("--solutions=", 0) == 0) {
      max_solutions = bench::flag_value<unsigned>(arg, "--solutions=");
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = bench::flag_value<int>(arg, "--repeat=");
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"g298", "g526", "g820", "g1423"};
    if (options.full) names.push_back("g5378");
  }

  std::printf(
      "Deterministic-engine implication/storage bench "
      "(max_faults=%zu, backtracks=%ld, solutions=%u, repeat=%d)\n\n",
      max_faults, backtracks, max_solutions, repeat);

  bool consistent = true;
  bool counters_ok = true;
  long obl_evals_total = 0;
  long inc_evals_total = 0;
  double legacy_wall_total = 0.0;
  double flat_wall_total = 0.0;
  std::vector<CircuitResult> results;
  for (const std::string& name : names) {
    const auto c = gen::make_circuit(name);
    const auto faults = fault::collapse(c).faults;
    CircuitResult cr;
    cr.name = name;
    cr.faults = faults.size();

    // Deterministic even sample over the collapsed list.
    const std::size_t stride =
        faults.size() > max_faults ? (faults.size() + max_faults - 1) /
                                         max_faults
                                   : 1;
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < faults.size(); i += stride) picks.push_back(i);
    cr.sampled = picks.size();

    const auto obs = atpg::share_observation_distances(c);
    atpg::SearchLimits limits;
    limits.max_backtracks = backtracks;

    std::vector<FaultResult> reference;
    for (std::size_t m = 0; m < kModeCount; ++m) {
      const ModeSpec& mode = kModes[m];
      limits.incremental_model = mode.incremental;
      limits.flat_model = mode.flat;
      Sample& sample = cr.samples[m];
      sample.mode = &mode;
      // Min across repeats: the noise-robust estimator (scheduler
      // interference only ever adds time).
      double wall = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        Sample scratch;  // only the last repeat's counters are kept
        std::vector<FaultResult> run;
        run.reserve(picks.size());
        // A fresh pool per repeat keeps the tallies comparable run-to-run.
        atpg::FrameModelPool pool(c);
        atpg::FrameModelPool* pool_ptr = mode.pooled ? &pool : nullptr;
        const util::Stopwatch sw;
        for (const std::size_t i : picks) {
          run.push_back(run_fault(c, faults[i], limits, obs, max_solutions,
                                  pool_ptr, scratch));
        }
        const double elapsed = sw.seconds();
        wall = rep == 0 ? elapsed : std::min(wall, elapsed);
        scratch.mode = &mode;
        scratch.model_builds = mode.pooled ? pool.constructions() : 0;
        scratch.model_acquires = mode.pooled ? pool.acquires() : 0;
        sample = scratch;
        if (rep == 0) {
          if (m == 0) {
            reference = std::move(run);
          } else if (run != reference) {
            cr.identical = false;
            for (std::size_t k = 0; k < run.size(); ++k) {
              if (!(run[k] == reference[k])) {
                std::printf(
                    "ERROR: %s fault #%zu diverges: oblivious %s "
                    "dec=%ld bt=%ld sol=%u vs %s %s dec=%ld "
                    "bt=%ld sol=%u\n",
                    name.c_str(), picks[k], status_name(reference[k].status),
                    reference[k].decisions, reference[k].backtracks,
                    reference[k].solutions, mode.key,
                    status_name(run[k].status), run[k].decisions,
                    run[k].backtracks, run[k].solutions);
                break;
              }
            }
          }
        }
      }
      sample.wall_s = wall;
    }
    consistent = consistent && cr.identical;
    if (!cr.counters_unchanged()) {
      counters_ok = false;
      std::printf(
          "ERROR: %s deterministic counters differ between layouts: "
          "legacy gate_evals=%ld events=%ld vs flat gate_evals=%ld "
          "events=%ld\n",
          name.c_str(), cr.legacy().gate_evals, cr.legacy().events,
          cr.flat().gate_evals, cr.flat().events);
    }

    obl_evals_total += cr.oblivious().gate_evals;
    inc_evals_total += cr.legacy().gate_evals;
    legacy_wall_total += cr.legacy().wall_s;
    flat_wall_total += cr.flat().wall_s;
    for (const Sample& s : cr.samples) {
      std::printf(
          "%-8s %-23s  wall=%8.2fms  dec=%8ld  bt=%8ld  "
          "gate_evals=%11ld  evals/dec=%8.1f  events=%10ld  "
          "solved=%zu  unt=%zu",
          cr.name.c_str(), s.mode->key, s.wall_s * 1e3, s.decisions,
          s.backtracks, s.gate_evals, s.evals_per_decision(), s.events,
          s.solved, s.untestable);
      if (s.mode->pooled) {
        std::printf("  builds=%zu acquires=%zu", s.model_builds,
                    s.model_acquires);
      }
      std::printf("\n");
    }
    std::printf(
        "%-8s   gate-eval reduction x%.2f, flat wall-clock x%.2f, "
        "identity %s, counters %s\n\n",
        cr.name.c_str(), cr.eval_reduction(), cr.flat_speedup(),
        cr.identical ? "OK" : "FAILED",
        cr.counters_unchanged() ? "unchanged" : "CHANGED");
    results.push_back(std::move(cr));
  }

  const double overall_reduction =
      inc_evals_total > 0 ? static_cast<double>(obl_evals_total) /
                                static_cast<double>(inc_evals_total)
                          : 0.0;
  const double overall_flat_speedup =
      flat_wall_total > 0 ? legacy_wall_total / flat_wall_total : 0.0;

  // Phase 2: speculative parallel targeting, serial vs `lanes` lanes.
  const unsigned lanes = options.threads ? options.threads : 4;
  const unsigned hardware = util::ParallelConfig{}.resolved();
  std::printf(
      "Speculative targeting phase (lanes=%u, hardware_concurrency=%u)\n\n",
      lanes, hardware);
  struct TargetingRow {
    std::string name;
    std::size_t faults = 0;
    TargetSample serial;
    TargetSample parallel;
    bool identical = false;
  };
  std::vector<TargetingRow> targeting;
  bool targeting_ok = true;
  double serial_wall_total = 0.0;
  double lanes_wall_total = 0.0;
  for (const std::string& name : names) {
    const auto c = gen::make_circuit(name);
    fault::FaultList tf = fault::collapse(c);
    if (tf.size() > max_faults) {
      tf.faults.resize(max_faults);
      tf.class_sizes.resize(max_faults);
    }
    TargetingRow row;
    row.name = name;
    row.faults = tf.size();
    row.serial =
        run_targeting(c, tf, 1, options.seed, backtracks, repeat);
    row.parallel =
        run_targeting(c, tf, lanes, options.seed, backtracks, repeat);
    row.identical = targeting_identical(row.serial.result,
                                        row.parallel.result);
    if (!row.identical) {
      targeting_ok = false;
      std::printf(
          "ERROR: %s lane targeting diverges from serial "
          "(tests %zu vs %zu, digest %016llx vs %016llx)\n",
          name.c_str(), row.serial.result.test_set.size(),
          row.parallel.result.test_set.size(),
          static_cast<unsigned long long>(row.serial.result.digests.tests),
          static_cast<unsigned long long>(
              row.parallel.result.digests.tests));
    }
    serial_wall_total += row.serial.wall_s;
    lanes_wall_total += row.parallel.wall_s;
    std::printf(
        "%-8s serial=%8.2fms  lanes(%u)=%8.2fms  x%.2f  spec=%ld "
        "committed=%ld discarded=%ld wasted_evals=%ld  identity %s\n",
        name.c_str(), row.serial.wall_s * 1e3, lanes,
        row.parallel.wall_s * 1e3,
        row.parallel.wall_s > 0 ? row.serial.wall_s / row.parallel.wall_s
                                : 0.0,
        row.parallel.spec.speculated, row.parallel.spec.committed,
        row.parallel.spec.discarded, row.parallel.spec.wasted_gate_evals,
        row.identical ? "OK" : "FAILED");
    targeting.push_back(std::move(row));
  }
  const double target_speedup =
      lanes_wall_total > 0 ? serial_wall_total / lanes_wall_total : 0.0;
  std::printf("\n");
  util::JsonWriter json(util::JsonWriter::Style::kPretty);
  json.begin_object();
  json.field("bench", "detengine");
  json.field("max_faults", max_faults);
  json.field("backtracks", backtracks);
  json.field("solutions", max_solutions);
  json.field("repeat", repeat);
  json.field("threads", lanes);
  json.field("hardware_concurrency", hardware);
  json.field("identical_across_modes", consistent);
  json.field("counters_unchanged", counters_ok);
  json.field("targeting_identical", targeting_ok);
  json.field("overall_gate_eval_reduction", overall_reduction);
  json.field("overall_flat_speedup", overall_flat_speedup);
  json.field("target_speedup", target_speedup);
  json.key("circuits").begin_array();
  for (const CircuitResult& cr : results) {
    json.begin_object();
    json.field("name", cr.name);
    json.field("faults", cr.faults);
    json.field("sampled", cr.sampled);
    json.field("identical", cr.identical);
    json.field("counters_unchanged", cr.counters_unchanged());
    json.field("gate_eval_reduction", cr.eval_reduction());
    json.field("flat_speedup", cr.flat_speedup());
    json.key("results").begin_array();
    for (std::size_t m = 0; m < kModeCount; ++m) {
      const Sample& s = cr.samples[m];
      json.begin_object();
      json.field("engine", s.mode->key);
      json.field("wall_s", s.wall_s);
      json.field("decisions", s.decisions);
      json.field("backtracks", s.backtracks);
      json.field("gate_evals", s.gate_evals);
      json.field("events", s.events);
      json.field("evals_per_decision", s.evals_per_decision());
      json.field("decisions_per_s", s.decisions_per_s());
      json.field("solved", s.solved);
      json.field("untestable", s.untestable);
      json.field("model_builds", s.model_builds);
      json.field("model_acquires", s.model_acquires);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("targeting").begin_array();
  for (const TargetingRow& row : targeting) {
    json.begin_object();
    json.field("name", row.name);
    json.field("faults", row.faults);
    json.field("identical", row.identical);
    json.field("speedup", row.parallel.wall_s > 0
                              ? row.serial.wall_s / row.parallel.wall_s
                              : 0.0);
    json.key("rows").begin_array();
    for (const TargetSample* s : {&row.serial, &row.parallel}) {
      json.begin_object();
      json.field("lanes", s->lanes);
      json.field("wall_s", s->wall_s);
      json.field("detected", s->result.detected());
      json.field("vectors", s->result.test_set.size());
      json.field("speculated", s->spec.speculated);
      json.field("committed", s->spec.committed);
      json.field("discarded", s->spec.discarded);
      // Timing-dependent (how far a discarded lane ran before noticing the
      // cancel flag): report-only, never gated.
      json.field("wasted_gate_evals", s->spec.wasted_gate_evals);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_detengine.json")) {
    std::fprintf(stderr, "cannot write BENCH_detengine.json\n");
    return 1;
  }
  std::printf(
      "overall gate-eval reduction (incremental vs oblivious): x%.2f\n",
      overall_reduction);
  std::printf(
      "overall flat-layout wall-clock speedup (vs legacy incremental): "
      "x%.2f\n",
      overall_flat_speedup);
  std::printf(
      "speculative targeting speedup (serial vs %u lanes): x%.2f%s\n", lanes,
      target_speedup,
      hardware < lanes ? " [hardware_concurrency below lane count]" : "");
  std::printf("wrote BENCH_detengine.json%s\n",
              consistent && counters_ok && targeting_ok
                  ? ""
                  : " (INCONSISTENT RESULTS)");
  return consistent && counters_ok && targeting_ok ? 0 : 1;
}
