// Example: the paper's §VI extension — justifying *module output* values
// with a GA instead of backtracing through the module.
//
// Scenario: the 4-bit multiplier is an architectural block inside a larger
// design, and a system-level test needs its product bus to display a given
// value.  Classic architectural ATPG would backtrace the value through the
// multiplier (hard: arithmetic is a terrible backtrace subject); here the
// GA simply searches operand/control sequences forward.
#include <cstdio>

#include "gen/multiplier.h"
#include "hybrid/output_justify.h"
#include "sim/seqsim.h"

int main() {
  using namespace gatpg;
  using sim::V3;

  const auto circuit = gen::make_multiplier(4, "mult4");
  const auto pos = circuit.primary_outputs();

  // Goal: product displays 0b00010101 (= 21 = 3 x 7) with done = 1.
  const unsigned target_product = 21;
  std::vector<hybrid::OutputGoal> goals;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const std::string& name = circuit.name(pos[i]);
    if (name == "done") {
      goals.push_back({i, V3::k1});
      continue;
    }
    if (name.rfind("p", 0) == 0 && name.size() > 1) {
      const unsigned bit = static_cast<unsigned>(std::stoul(name.substr(1)));
      goals.push_back(
          {i, ((target_product >> bit) & 1) ? V3::k1 : V3::k0});
    }
  }
  std::printf("goal: product = %u with done = 1 (%zu output goals)\n",
              target_product, goals.size());

  hybrid::GaJustifyConfig config;
  config.population = 128;
  config.generations = 32;
  config.sequence_length = 10;  // load + 4 Booth steps + slack
  config.seed = 11;

  const hybrid::GaOutputJustifier justifier(circuit);
  const sim::State3 all_x(circuit.flip_flops().size(), V3::kX);
  const auto result = justifier.justify(goals, all_x, config,
                                        util::Deadline::after_seconds(30));
  if (!result.success) {
    std::printf("GA did not find a sequence (best fitness %.1f/%zu after "
                "%zu evaluations)\n",
                result.best_fitness, goals.size(), result.evaluations);
    return 1;
  }
  std::printf("found a %zu-vector sequence after %zu candidate evaluations\n",
              result.sequence.size(), result.evaluations);

  // Show the witness: decode the inputs the GA discovered.
  sim::SequenceSimulator s(circuit);
  for (const auto& v : result.sequence) {
    s.apply_vector(v);
    // Print operand values on the cycle start is asserted.
    const auto start = circuit.find("start");
    if (s.scalar_value(start) == V3::k1) {
      unsigned a = 0, b = 0;
      for (unsigned bit = 0; bit < 4; ++bit) {
        const std::string index = std::to_string(bit);
        if (s.scalar_value(circuit.find("a" + index)) == V3::k1) {
          a |= 1u << bit;
        }
        if (s.scalar_value(circuit.find("b" + index)) == V3::k1) {
          b |= 1u << bit;
        }
      }
      std::printf("  GA chose operands: a=%u b=%u (signed 4-bit)\n", a, b);
    }
    s.clock();
  }
  // Verify the product on the final cycle.
  sim::SequenceSimulator check(circuit);
  for (std::size_t i = 0; i + 1 < result.sequence.size(); ++i) {
    check.apply_vector(result.sequence[i]);
    check.clock();
  }
  check.apply_vector(result.sequence.back());
  unsigned product = 0;
  for (unsigned bit = 0; bit < 8; ++bit) {
    const std::string index = std::to_string(bit);
    if (check.scalar_value(circuit.find("p" + index)) == V3::k1) {
      product |= 1u << bit;
    }
  }
  std::printf("verified: product bus shows %u, done = %c\n", product,
              sim::v3_char(check.scalar_value(circuit.find("done"))));
  return 0;
}
