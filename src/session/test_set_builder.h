// Shared test-set accumulation for every test generator.
//
// Engines commit whole candidate sequences (one justification+propagation
// chain, one evolved GA sequence, one random block); the builder keeps both
// the flat concatenated test set — what gets graded and shipped — and the
// per-commit segment boundaries (layer replay and snapshots keep them).  The
// flat set is always the in-order concatenation of the segments (tested
// invariant), so the three divergent test_set/segments copies the engines
// used to keep collapse into this one structure.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/seqsim.h"

namespace gatpg::serialize {
class Writer;
class Reader;
}  // namespace gatpg::serialize

namespace gatpg::session {

class TestSetBuilder {
 public:
  /// Appends `segment` to the flat test set and records its boundary.
  /// Returns the new segment's index.
  std::size_t commit(sim::Sequence segment);

  const sim::Sequence& test_set() const { return test_set_; }
  const std::vector<sim::Sequence>& segments() const { return segments_; }
  std::size_t vectors() const { return test_set_.size(); }
  std::size_t segment_count() const { return segments_.size(); }

  // -- Snapshot support ------------------------------------------------------

  /// FNV-1a-64 over segment shapes and vector values.
  std::uint64_t digest() const;
  /// Serializes the segments only; load() rebuilds the flat concatenation,
  /// preserving the flat-equals-concatenation invariant by construction.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  sim::Sequence test_set_;
  std::vector<sim::Sequence> segments_;
};

}  // namespace gatpg::session
