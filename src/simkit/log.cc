#include "simkit/log.h"

#include <cctype>
#include <cstdio>

namespace chameleon::sim {

namespace {
LogLevel g_level = LogLevel::Warn;
} // namespace

const NameTable<LogLevel> &
logLevelTable()
{
    static const NameTable<LogLevel> table{{LogLevel::Error, "error"},
                                           {LogLevel::Warn, "warn"},
                                           {LogLevel::Info, "info"},
                                           {LogLevel::Debug, "debug"},
                                           {LogLevel::Trace, "trace"}};
    return table;
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    std::string tag = logLevelTable().name(level);
    for (char &c : tag)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    std::fprintf(stderr, "[%s] %s\n", tag.c_str(), msg.c_str());
}

} // namespace chameleon::sim
