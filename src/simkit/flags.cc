#include "simkit/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "simkit/check.h"

namespace chameleon::sim {

FlagSet::FlagSet(std::string programName) : program_(std::move(programName))
{
}

std::string *
FlagSet::addString(const std::string &name, std::string def,
                   const std::string &help)
{
    CHM_CHECK(!flags_.count(name), "duplicate flag --" << name);
    Flag flag;
    flag.type = Type::String;
    flag.help = help;
    flag.defaultText = def;
    flag.stringValue = std::move(def);
    order_.push_back(name);
    return &flags_.emplace(name, std::move(flag)).first->second.stringValue;
}

double *
FlagSet::addDouble(const std::string &name, double def,
                   const std::string &help)
{
    CHM_CHECK(!flags_.count(name), "duplicate flag --" << name);
    Flag flag;
    flag.type = Type::Double;
    flag.help = help;
    std::ostringstream oss;
    oss << def;
    flag.defaultText = oss.str();
    flag.doubleValue = def;
    order_.push_back(name);
    return &flags_.emplace(name, std::move(flag)).first->second.doubleValue;
}

std::int64_t *
FlagSet::addInt(const std::string &name, std::int64_t def,
                const std::string &help)
{
    CHM_CHECK(!flags_.count(name), "duplicate flag --" << name);
    Flag flag;
    flag.type = Type::Int;
    flag.help = help;
    flag.defaultText = std::to_string(def);
    flag.intValue = def;
    order_.push_back(name);
    return &flags_.emplace(name, std::move(flag)).first->second.intValue;
}

bool *
FlagSet::addBool(const std::string &name, bool def, const std::string &help)
{
    CHM_CHECK(!flags_.count(name), "duplicate flag --" << name);
    Flag flag;
    flag.type = Type::Bool;
    flag.help = help;
    flag.defaultText = def ? "true" : "false";
    flag.boolValue = def;
    order_.push_back(name);
    return &flags_.emplace(name, std::move(flag)).first->second.boolValue;
}

std::vector<std::string> *
FlagSet::addStringList(const std::string &name, const std::string &help)
{
    CHM_CHECK(!flags_.count(name), "duplicate flag --" << name);
    Flag flag;
    flag.type = Type::StringList;
    flag.help = help;
    flag.defaultText = "none; repeatable";
    order_.push_back(name);
    return &flags_.emplace(name, std::move(flag)).first->second.listValue;
}

bool
FlagSet::setValue(Flag &flag, const std::string &text)
{
    char *end = nullptr;
    switch (flag.type) {
      case Type::String:
        flag.stringValue = text;
        return true;
      case Type::StringList:
        flag.listValue.push_back(text);
        return true;
      case Type::Double:
        flag.doubleValue = std::strtod(text.c_str(), &end);
        return end && *end == '\0' && !text.empty();
      case Type::Int:
        flag.intValue = std::strtoll(text.c_str(), &end, 10);
        return end && *end == '\0' && !text.empty();
      case Type::Bool:
        if (text == "true" || text == "1") {
            flag.boolValue = true;
            return true;
        }
        if (text == "false" || text == "0") {
            flag.boolValue = false;
            return true;
        }
        return false;
    }
    return false;
}

bool
FlagSet::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stderr);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            std::fprintf(stderr, "unexpected argument: %s\n%s",
                         arg.c_str(), usage().c_str());
            return false;
        }
        arg = arg.substr(2);
        std::string value;
        bool have_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            have_value = true;
        }
        auto it = flags_.find(arg);
        if (it == flags_.end()) {
            std::fprintf(stderr, "unknown flag: --%s\n%s", arg.c_str(),
                         usage().c_str());
            return false;
        }
        if (!have_value) {
            if (it->second.type == Type::Bool) {
                value = "true"; // bare --flag enables booleans
                have_value = true;
            } else if (i + 1 < argc) {
                value = argv[++i];
                have_value = true;
            }
        }
        if (!have_value || !setValue(it->second, value)) {
            std::fprintf(stderr, "bad value for --%s\n%s", arg.c_str(),
                         usage().c_str());
            return false;
        }
    }
    return true;
}

std::string
FlagSet::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << program_ << " [flags]\n";
    for (const auto &name : order_) {
        const Flag &flag = flags_.at(name);
        oss << "  --" << name << " (default: " << flag.defaultText
            << ")\n      " << flag.help << "\n";
    }
    return oss.str();
}

} // namespace chameleon::sim
