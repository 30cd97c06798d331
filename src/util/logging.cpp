#include "util/logging.hpp"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace creditflow::util {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() {
  static const LogLevel level = [] {
    const char* env = std::getenv("CREDITFLOW_LOG");
    return env ? parse_log_level(env) : LogLevel::kWarn;
  }();
  return level;
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}

namespace detail {

void emit(LogLevel level, const std::string& message) {
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  std::cerr << "[creditflow " << level_name(level) << "] " << message << '\n';
}

}  // namespace detail

}  // namespace creditflow::util
