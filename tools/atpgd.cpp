// atpgd — the persistent ATPG service over stdin/stdout.
//
// Requests arrive as u32-LE length-prefixed text frames on stdin; events
// stream as JSON lines on stdout (see src/service/daemon.h for the command
// set and DESIGN.md §4i for the protocol).  A socket front-end can wrap
// this binary 1:1 (e.g. socat UNIX-LISTEN:... EXEC:atpgd).
//
// Usage: atpgd [--checkpoint-dir=DIR] [--interval=SECONDS]
//   --checkpoint-dir  default snapshot location for jobs that don't pass
//                     checkpoint=; each job writes <dir>/<job>.snap.shardK
//   --interval        default auto-checkpoint interval for submitted jobs
//                     (a finite, non-negative number of seconds; anything
//                     else exits 2 with a message)
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "service/daemon.h"

namespace {

/// `text` as a finite, non-negative number of seconds, or nullopt when any
/// part of it is not one (empty, trailing junk, negative, inf, nan).
std::optional<double> parse_seconds(std::string_view text) {
  double value = 0.0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (first == last || ec != std::errc() || end != last ||
      !std::isfinite(value) || value < 0) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  gatpg::service::DaemonConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      config.checkpoint_dir = arg.substr(17);
    } else if (arg.rfind("--interval=", 0) == 0) {
      const auto seconds = parse_seconds(std::string_view(arg).substr(11));
      if (!seconds) {
        std::fprintf(stderr, "atpgd: invalid value '%s' for --interval\n",
                     arg.c_str() + 11);
        return 2;
      }
      config.default_interval_s = *seconds;
    } else {
      std::fprintf(stderr, "atpgd: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  gatpg::service::Daemon daemon(config, stdin, stdout);
  return daemon.serve();
}
