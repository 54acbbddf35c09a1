#pragma once

// Leveled logging facade — the single sink every solver reports through.
//
// Usage:
//   DFTFE_LOG(info) << "[scf] iter " << it << " residual " << r;
//   DFTFE_LOG_AT(obs::level_for(opt.verbose)) << "[relax] step " << it;
//
// The message is assembled in a thread-local stream and emitted atomically
// (one mutex-guarded write per message) so interleaved lane and worker threads
// never shred each other's lines. Level selection:
//   * programmatic: obs::Logger::global().set_level(obs::LogLevel::debug)
//   * environment:  DFTFE_LOG_LEVEL=off|error|warn|info|debug|trace
// The historical `opt.verbose` flags map onto levels via level_for():
// verbose messages log at `info` (visible under the default level), quiet
// ones at `trace` (visible only when explicitly requested).

#include <atomic>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>

namespace dftfe::obs {

enum class LogLevel : int { off = 0, error, warn, info, debug, trace };

/// Parse a level name ("info", "DEBUG", ...); unknown names yield `fallback`.
LogLevel parse_log_level(const std::string& name, LogLevel fallback = LogLevel::info);
const char* log_level_name(LogLevel level);

/// Map a legacy `verbose` flag to a message level: verbose output stays
/// visible at the default (info) threshold, quiet output needs trace.
inline LogLevel level_for(bool verbose) {
  return verbose ? LogLevel::info : LogLevel::trace;
}

class Logger {
 public:
  bool enabled(LogLevel level) const {
    return level <= level_.load(std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }

  /// Redirect output (tests, trace files). Pass nullptr to restore std::cout.
  void set_sink(std::ostream* sink);

  /// Emit one complete message line (newline appended if missing).
  void write(LogLevel level, const std::string& message);

  /// Process-wide logger; initial level comes from DFTFE_LOG_LEVEL (default
  /// info, which preserves the old `verbose` printing behavior).
  static Logger& global();

 private:
  Logger();
  // Atomic: every DFTFE_LOG expansion calls enabled() without taking mu_, so
  // a plain enum field would race concurrent set_level() calls.
  std::atomic<LogLevel> level_{LogLevel::info};
  std::ostream* sink_ = nullptr;  // nullptr -> std::cout
  std::mutex mu_;
};

/// One in-flight message: accumulates stream operands, emits on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::global().write(level_, os_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <class T>
  LogMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace dftfe::obs

// Token form: DFTFE_LOG(info) << ...;  expression form: DFTFE_LOG_AT(lvl).
// The dangling-else guard skips operand formatting when the level is off.
#define DFTFE_LOG_AT(level_expr)                                      \
  if (!::dftfe::obs::Logger::global().enabled(level_expr)) {          \
  } else                                                              \
    ::dftfe::obs::LogMessage(level_expr)
#define DFTFE_LOG(level_token) DFTFE_LOG_AT(::dftfe::obs::LogLevel::level_token)
