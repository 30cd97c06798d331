// CreditFlow: minimal leveled logger. Level comes from CREDITFLOW_LOG
// (trace|debug|info|warn|error; default warn) so library users and benches
// can raise verbosity without recompiling.
#pragma once

#include <sstream>
#include <string>

namespace creditflow::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log level (initialized once from the environment).
[[nodiscard]] LogLevel log_level();
/// Parse a level name; unknown names yield kWarn.
[[nodiscard]] LogLevel parse_log_level(const std::string& name);

namespace detail {
void emit(LogLevel level, const std::string& message);
}

/// Stream-style log statement; evaluates its message lazily.
#define CF_LOG(level_enum, expr)                                          \
  do {                                                                    \
    if (static_cast<int>(level_enum) >=                                   \
        static_cast<int>(::creditflow::util::log_level())) {              \
      std::ostringstream cf_log_oss;                                      \
      cf_log_oss << expr;                                                 \
      ::creditflow::util::detail::emit(level_enum, cf_log_oss.str());     \
    }                                                                     \
  } while (false)

#define CF_LOG_TRACE(expr) CF_LOG(::creditflow::util::LogLevel::kTrace, expr)
#define CF_LOG_DEBUG(expr) CF_LOG(::creditflow::util::LogLevel::kDebug, expr)
#define CF_LOG_INFO(expr) CF_LOG(::creditflow::util::LogLevel::kInfo, expr)
#define CF_LOG_WARN(expr) CF_LOG(::creditflow::util::LogLevel::kWarn, expr)
#define CF_LOG_ERROR(expr) CF_LOG(::creditflow::util::LogLevel::kError, expr)

}  // namespace creditflow::util
