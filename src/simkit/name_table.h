/**
 * @file
 * One name table per enum: each value's name is written once.
 *
 * A table lists {value, "name"} pairs in the order its names list
 * prints them, then any parse-only aliases ("round-robin" for "rr").
 * An enum's *Name, *ByName and *Names functions are one-line wrappers
 * over its table, and the spec schema's Named fields take the table
 * (chameleon/spec_schema.h), so a printed name, its parser and the
 * "known: ..." list of an error cannot drift apart.
 */

#ifndef CHAMELEON_SIMKIT_NAME_TABLE_H
#define CHAMELEON_SIMKIT_NAME_TABLE_H

#include <initializer_list>
#include <string>
#include <vector>

namespace chameleon::sim {

template <class E>
class NameTable
{
  public:
    struct Entry
    {
        E value;
        const char *name;
    };

    NameTable(std::initializer_list<Entry> names,
              std::initializer_list<Entry> aliases = {})
        : names_(names), aliases_(aliases)
    {
        for (const Entry &e : names_)
            known_ += (known_.empty() ? "" : ", ") + std::string(e.name);
    }

    /** The value's canonical name; "?" for a value not in the table. */
    const char *
    name(E value) const
    {
        for (const Entry &e : names_) {
            if (e.value == value)
                return e.name;
        }
        return "?";
    }

    /** Parse a canonical name or an alias; false (out untouched) else. */
    bool
    byName(const std::string &name, E *out) const
    {
        for (const auto *list : {&names_, &aliases_}) {
            for (const Entry &e : *list) {
                if (name == e.name) {
                    *out = e.value;
                    return true;
                }
            }
        }
        return false;
    }

    /** The canonical names, comma-separated; aliases are not listed. */
    const char *names() const { return known_.c_str(); }

    const std::vector<Entry> &entries() const { return names_; }
    const std::vector<Entry> &aliases() const { return aliases_; }

  private:
    std::vector<Entry> names_;
    std::vector<Entry> aliases_;
    std::string known_;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_NAME_TABLE_H
