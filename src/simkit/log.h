/**
 * @file
 * Minimal leveled logging for the simulator.
 *
 * Logging is off by default (level Warn) so benchmark output stays clean;
 * tests and examples can raise the level for debugging. All output goes
 * to stderr so that bench table output on stdout remains machine-parsable.
 */

#ifndef CHAMELEON_SIMKIT_LOG_H
#define CHAMELEON_SIMKIT_LOG_H

#include <sstream>
#include <string>

#include "simkit/name_table.h"

namespace chameleon::sim {

/** Severity levels, increasing verbosity. */
enum class LogLevel { Error = 0, Warn = 1, Info = 2, Debug = 3, Trace = 4 };

/** Set the global log threshold; messages above it are dropped. */
void setLogLevel(LogLevel level);

/** Current global log threshold. */
LogLevel logLevel();

/** Emit a message at the given level (used by the macros below). */
void logMessage(LogLevel level, const std::string &msg);

/** The levels' lowercase names ("error" ... "trace"): the parser
 * (false on an unknown name) and the list for flag help read it. */
const NameTable<LogLevel> &logLevelTable();
inline bool
logLevelByName(const std::string &name, LogLevel *out)
{
    return logLevelTable().byName(name, out);
}
inline const char *
logLevelNames()
{
    return logLevelTable().names();
}

} // namespace chameleon::sim

#define CHM_LOG(level, msg)                                                   \
    do {                                                                      \
        if (static_cast<int>(level) <=                                        \
            static_cast<int>(::chameleon::sim::logLevel())) {                 \
            std::ostringstream chm_log_oss_;                                  \
            chm_log_oss_ << msg;                                              \
            ::chameleon::sim::logMessage(level, chm_log_oss_.str());          \
        }                                                                     \
    } while (0)

#define CHM_ERROR(msg) CHM_LOG(::chameleon::sim::LogLevel::Error, msg)
#define CHM_WARN(msg) CHM_LOG(::chameleon::sim::LogLevel::Warn, msg)
#define CHM_INFO(msg) CHM_LOG(::chameleon::sim::LogLevel::Info, msg)
#define CHM_DEBUG(msg) CHM_LOG(::chameleon::sim::LogLevel::Debug, msg)
#define CHM_TRACE(msg) CHM_LOG(::chameleon::sim::LogLevel::Trace, msg)

#endif // CHAMELEON_SIMKIT_LOG_H
