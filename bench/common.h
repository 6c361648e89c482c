// Shared harness pieces for the table-reproduction benches.
//
// Each bench binary reproduces one table/figure of the paper.  The central
// routine runs both test generators (GA-HITEC and the HITEC baseline) on a
// circuit with the paper's pass schedules (wall-clock limits scaled by
// --time-scale) and prints rows in the paper's format: one line per pass
// with cumulative Det / Vec / Time / Unt.
//
// Absolute numbers differ from the 1995 paper by construction (different
// hardware, generated analog circuits); the *shape* — who detects more per
// pass, roughly equal untestable counts after the deterministic pass,
// where the hybrid wins — is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cassert>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/grading.h"
#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "session/observer.h"
#include "util/tableprint.h"

namespace gatpg::bench {

struct BenchOptions {
  double time_scale = 0.01;
  /// Wall-clock cap per pass per engine (keeps default bench sweeps
  /// bounded; the paper ran uncapped for up to 39 hours).  0 = uncapped.
  double pass_budget_s = 2.0;
  bool full = false;  // include the slowest circuits
  std::uint64_t seed = 1;
  /// Worker threads for fault simulation / GA evaluation (0 =
  /// hardware_concurrency, 1 = serial); results are thread-count-invariant.
  unsigned threads = 0;
  /// When non-empty, the bench writes machine-readable results here.
  std::string json_path;
};

/// Parses --time-scale=X, --pass-budget=X, --full, --seed=N, --threads=N,
/// --json=FILE.  Arguments starting with one of `bench_flags` (the bench's
/// own "--name=" prefixes) and circuit names are returned as positional
/// args, in order.  Bad input never reaches the bench: --help/-h prints
/// usage and exits 0, any other unknown option exits 2, and a name that
/// is neither a registry circuit nor a .bench file in the data directory
/// exits 1, each with a message.
BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional = nullptr,
                           std::initializer_list<const char*> bench_flags = {});

/// Prints "invalid value" for a numeric flag and exits 2.
[[noreturn]] void bad_flag_value(const std::string& arg,
                                 std::string_view prefix);

/// The value of a numeric flag: `arg` with its "--name=" `prefix` stripped,
/// parsed as a non-negative T (an integer type or double).  Empty input,
/// trailing junk, a sign on an unsigned type, a negative or non-finite
/// value, or a value T cannot hold exits 2 with a message — a bench never
/// runs on a misread number.
template <typename T>
T flag_value(const std::string& arg, std::string_view prefix) {
  assert(std::string_view(arg).substr(0, prefix.size()) == prefix);
  const char* first = arg.data() + prefix.size();
  const char* last = arg.data() + arg.size();
  T value{};
  const auto [end, ec] = std::from_chars(first, last, value);
  bool ok = first != last && ec == std::errc() && end == last;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value) && value >= 0;
  } else if constexpr (std::is_signed_v<T>) {
    ok = ok && value >= 0;
  }
  if (!ok) bad_flag_value(arg, prefix);
  return value;
}

/// Machine-readable bench output, collected through the session-layer
/// ProgressObserver hook: one record per generator run with its per-pass
/// cumulative rows, written as a JSON array.
class JsonReport {
 public:
  /// Observer for one generator run.  Attach via the generator's observer
  /// parameter; the record is appended to the report on session end.  Must
  /// stay alive (and at a stable address) for the whole run.
  class Run : public session::ProgressObserver {
   public:
    Run(JsonReport* report, std::string circuit, std::string engine);

    void on_pass_end(const session::Session& session, std::size_t pass_index,
                     const session::PassOutcome& outcome) override;
    void on_session_end(const session::Session& session,
                        const session::SessionResult& result) override;

   private:
    JsonReport* report_;
    std::string circuit_;
    std::string engine_;
    std::vector<session::PassOutcome> passes_;
  };

  /// Makes an observer feeding this report; `report` may be null (the
  /// returned Run is then inert), so call sites need no branching on
  /// whether --json was given.
  static Run observe(JsonReport* report, std::string circuit,
                     std::string engine);

  bool empty() const { return records_.empty(); }
  /// Writes the collected records as a JSON array; returns false on I/O
  /// failure.
  bool write_file(const std::string& path) const;

 private:
  friend class Run;
  struct Record {
    std::string circuit;
    std::string engine;
    std::size_t total_faults = 0;
    std::size_t detected = 0;
    std::size_t untestable = 0;
    std::size_t vectors = 0;
    std::vector<session::PassOutcome> passes;
  };
  std::vector<Record> records_;
};

struct ComparisonRow {
  std::string circuit;
  unsigned depth = 0;
  std::size_t total_faults = 0;
  hybrid::AtpgResult ga_hitec;
  hybrid::AtpgResult hitec;
};

/// Runs both engines on one circuit.  `seq_len_override` (pair for passes
/// 1/2) reproduces the paper's fixed sequence lengths for the synthesized
/// circuits; nullopt uses the 4x/8x sequential-depth rule.  When `json` is
/// given, both runs are recorded through JsonReport observers.
ComparisonRow run_comparison(
    const netlist::Circuit& c, const BenchOptions& options,
    std::optional<std::pair<unsigned, unsigned>> seq_len_override =
        std::nullopt,
    JsonReport* json = nullptr);

/// Appends the paper-style three-line block for one circuit to a printer
/// with columns: Circuit Depth Faults | Det Vec Time Unt | Det Vec Time Unt.
void add_comparison_rows(util::TablePrinter& table, const ComparisonRow& row);

/// The standard header for Table II/III style output: the `title` line, the
/// GA-HITEC / HITEC column banner, and the table printer itself.
util::TablePrinter make_comparison_table();
void print_comparison_banner();

/// One-line-per-engine summary table (bench_alternatives style): columns
/// Circuit Engine Det Unt Vec Time Cov%.
util::TablePrinter make_engine_table();
void add_engine_row(util::TablePrinter& table, const std::string& circuit,
                    const std::string& engine, std::size_t total_faults,
                    const session::SessionResult& result, double time_s);

/// Writes `report` to options.json_path when set; prints a confirmation or
/// error line.  No-op when --json was not given.
void finish_json(const BenchOptions& options, const JsonReport& report);

}  // namespace gatpg::bench
