#include "util/logging.h"

#include <atomic>
#include <cstdio>

namespace gatpg::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, const std::string& message) {
  const LogLevel threshold = g_level.load(std::memory_order_relaxed);
  if (level < threshold || threshold == LogLevel::kOff) return;
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), message.c_str());
}

}  // namespace gatpg::util
