/**
 * @file
 * Minimal command-line flag parsing for the tools and examples.
 *
 * Supports --name value and --name=value forms, typed registration
 * with defaults, and generated usage text. Deliberately tiny; not a
 * general-purpose library.
 */

#ifndef CHAMELEON_SIMKIT_FLAGS_H
#define CHAMELEON_SIMKIT_FLAGS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace chameleon::sim {

/** Registry of typed command-line flags. */
class FlagSet
{
  public:
    explicit FlagSet(std::string programName);

    /** Register flags; the returned pointer stays owned by the set. */
    std::string *addString(const std::string &name, std::string def,
                           const std::string &help);
    double *addDouble(const std::string &name, double def,
                      const std::string &help);
    std::int64_t *addInt(const std::string &name, std::int64_t def,
                         const std::string &help);
    bool *addBool(const std::string &name, bool def,
                  const std::string &help);
    /** Repeatable: every occurrence appends its value, in order. */
    std::vector<std::string> *addStringList(const std::string &name,
                                            const std::string &help);

    /**
     * Parse argv. Returns false (after printing usage) on unknown flags,
     * malformed values, or --help.
     */
    bool parse(int argc, char **argv);

    /** Usage text. */
    std::string usage() const;

  private:
    enum class Type { String, Double, Int, Bool, StringList };

    struct Flag
    {
        Type type;
        std::string help;
        std::string defaultText;
        // Exactly one is active, per type.
        std::string stringValue;
        double doubleValue = 0.0;
        std::int64_t intValue = 0;
        bool boolValue = false;
        std::vector<std::string> listValue;
    };

    bool setValue(Flag &flag, const std::string &text);

    std::string program_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_FLAGS_H
