// gtest checks of fault::FaultSimulator sessions against the independent
// reference model of tests/helpers/reference_sim.h.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/faultsim.h"
#include "helpers/reference_sim.h"

namespace gatpg::test {

/// Runs `chunks` through a FaultSimulator built with `config` and checks
/// every chunk against `expected` (reference_session over the same chunks):
/// the newly detected indices and their order, the good state, and every
/// fault's persisted faulty state.
inline void expect_session_matches(const netlist::Circuit& c,
                                   const std::vector<fault::Fault>& faults,
                                   const std::vector<sim::Sequence>& chunks,
                                   const std::vector<ReferenceChunk>& expected,
                                   const fault::FaultSimConfig& config) {
  SCOPED_TRACE("threads " + std::to_string(config.parallel.threads) +
               " window " + std::to_string(config.window));
  ASSERT_EQ(chunks.size(), expected.size());
  fault::FaultSimulator fs(c, faults, config);
  std::size_t detected = 0;
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    ASSERT_EQ(fs.run(chunks[k]), expected[k].detected)
        << "detection list differs at chunk " << k;
    ASSERT_EQ(fs.good_state(), expected[k].good_state)
        << "good state differs after chunk " << k;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      ASSERT_EQ(fs.fault_state(i), expected[k].fault_states[i])
          << "persisted faulty state differs for fault " << i
          << " after chunk " << k;
    }
    detected += expected[k].detected.size();
  }
  ASSERT_EQ(fs.detected_count(), detected);
}

/// reference_session over `chunks`, then expect_session_matches for each of
/// `configs`.
inline void expect_sessions_match_reference(
    const netlist::Circuit& c, const std::vector<fault::Fault>& faults,
    const std::vector<sim::Sequence>& chunks,
    const std::vector<fault::FaultSimConfig>& configs) {
  const std::vector<ReferenceChunk> expected =
      reference_session(c, faults, chunks);
  for (const fault::FaultSimConfig& config : configs) {
    expect_session_matches(c, faults, chunks, expected, config);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace gatpg::test
