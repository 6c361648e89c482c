// Minimal leveled logging to stderr.
//
// ATPG runs are long; the engines emit progress at Info level and detailed
// search traces at Debug level.  Logging is process-global and intentionally
// simple (no sinks/formatting frameworks) per the project's no-dependency
// rule.  Every function here is safe to call from concurrent threads (the
// sharded service logs from its worker lanes): the level is atomic, and
// each line is written whole.
#pragma once

#include <sstream>
#include <string>

namespace gatpg::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are discarded.  May race
/// with log_line() on other threads: each line sees the old or the new
/// threshold.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one formatted line ("[level] message\n") if level passes the
/// threshold.  Thread-safe: the line goes out in a single fprintf to stderr,
/// whose stream lock keeps lines from concurrent threads from interleaving.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogStream log_debug() {
  return detail::LogStream(LogLevel::kDebug);
}
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() {
  return detail::LogStream(LogLevel::kError);
}

}  // namespace gatpg::util
