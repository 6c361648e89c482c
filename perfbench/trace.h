// The traced run: spans of one session (session -> pass -> target) from a
// ProgressObserver, plus a replay that times calls into each layer's public
// functions on the same circuit and limits.  Spans are kept in memory and
// written as Chrome trace-event JSON when the run ends.
#pragma once

#include <string>

#include "workloads.h"

namespace perfbench {

/// Runs the traced invocation of `w`: untraced and traced sessions
/// alternate for `seconds` (their median difference is the tracing
/// overhead), then the layer replay runs once.  Adds every per-layer metric
/// to `r` and writes `<out_dir>/<workload>-seed<N>.trace.json`.
void run_traced(const Workload& w, double seconds, const std::string& out_dir,
                Report& r);

}  // namespace perfbench
