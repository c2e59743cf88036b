/**
 * @file
 * String-keyed registry of system specs.
 *
 * Maps names to SystemSpecs so tools, benches, and tests select systems
 * by string instead of by enum. The global registry is pre-populated
 * with seven presets: the paper's five evaluated systems and two WRS
 * ablations; user code can register custom specs. Lookup also
 * understands a composition grammar:
 *
 *   base[+modifier...]
 *
 * where `base` is any registered name and each modifier adjusts one
 * policy axis: an eviction score (lru | fairshare | gdsf | paper), a
 * scheduler (fifo | sjf | mlq), an adapter policy (cache | ondemand),
 * prefetch[K] | noprefetch, bypass | nobypass, static | dynamic,
 * history | bert, chunked[N]. So "chameleon+gdsf+prefetch" is the full
 * system with GDSF eviction and predictive prefetch — no enum edit
 * required.
 */

#ifndef CHAMELEON_CHAMELEON_SYSTEM_REGISTRY_H
#define CHAMELEON_CHAMELEON_SYSTEM_REGISTRY_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chameleon/system_spec.h"

namespace chameleon::core {

/** Name -> SystemSpec catalogue with composition grammar. */
class SystemRegistry
{
  public:
    /** Starts with the paper's preset systems registered. */
    SystemRegistry();

    /** The process-wide registry used by tools and benches. */
    static SystemRegistry &global();

    /** Register (or replace) a spec under `name`. */
    void add(const std::string &name, SystemSpec spec,
             std::string description = "");

    /** Exact-name membership (no grammar). */
    bool has(const std::string &name) const;

    /**
     * Resolve a name, applying the composition grammar when the exact
     * name is not registered. Returns std::nullopt and fills `error`
     * (when non-null) with an actionable message on failure.
     */
    std::optional<SystemSpec> find(const std::string &name,
                                   std::string *error = nullptr) const;

    /** Like find(), but fails hard with the error message. */
    SystemSpec lookup(const std::string &name) const;

    /** Registered names, sorted (composition grammar not expanded). */
    std::vector<std::string> names() const;

    /** One-line description of a registered name ("" if none). */
    const std::string &description(const std::string &name) const;

    /** Modifier tokens accepted by the grammar, for help text. */
    static std::vector<std::string> modifierHelp();

  private:
    struct Entry
    {
        SystemSpec spec;
        std::string description;
    };

    static bool applyModifier(SystemSpec &spec, const std::string &token,
                              std::string *error);

    std::map<std::string, Entry> entries_;
};

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SYSTEM_REGISTRY_H
