#include "chameleon/system_registry.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <utility>

#include "simkit/check.h"

namespace chameleon::core {

namespace {

/** "prefetch16" -> ("prefetch", 16); no digits -> value = -1. */
bool
splitNumericSuffix(const std::string &token, const std::string &stem,
                   long long *value)
{
    if (token.compare(0, stem.size(), stem) != 0)
        return false;
    const std::string digits = token.substr(stem.size());
    if (digits.empty()) {
        *value = -1;
        return true;
    }
    if (!std::all_of(digits.begin(), digits.end(),
                     [](unsigned char c) { return std::isdigit(c); }))
        return false;
    *value = std::strtoll(digits.c_str(), nullptr, 10);
    return true;
}

} // namespace

SystemRegistry::SystemRegistry()
{
    add("slora", presets::slora(),
        "S-LoRA baseline: FIFO + fetch-on-demand/prefetch/discard [49]");
    add("slora-sjf", presets::sloraSjf(),
        "S-LoRA with the uServe shortest-job-first scheduler [46]");
    add("chameleon-nocache", presets::chameleonNoCache(),
        "Chameleon scheduler over baseline adapter management");
    add("chameleon-nosched", presets::chameleonNoSched(),
        "Chameleon adapter cache under FIFO scheduling");
    add("chameleon", presets::chameleon(),
        "the full system: MLQ scheduler + adapter cache (§4)");
    add("chameleon-output-only", presets::chameleonOutputOnly(),
        "WRS = predicted output length only (Fig. 19)");
    add("chameleon-degree1", presets::chameleonDegree1(),
        "degree-1 WRS polynomial (§4.3.1 ablation)");
}

SystemRegistry &
SystemRegistry::global()
{
    static SystemRegistry registry;
    return registry;
}

void
SystemRegistry::add(const std::string &name, SystemSpec spec,
                    std::string description)
{
    CHM_CHECK(!name.empty(), "registry names cannot be empty");
    spec.name = name;
    entries_[name] = Entry{std::move(spec), std::move(description)};
}

bool
SystemRegistry::has(const std::string &name) const
{
    return entries_.count(name) != 0;
}

namespace {

/** Modifier spellings of policy names, with the names they stand for. */
constexpr std::pair<const char *, const char *> kPolicyAliases[] = {
    {"paper", "chameleon"}, {"fair-share", "fairshare"},
    {"cache", "chameleon-cache"}, {"ondemand", "on-demand"}};

/** The modifiers that set a knob rather than name a policy. */
constexpr const char *kKnobModifiers[] = {
    "prefetch[K]", "noprefetch", "bypass", "nobypass",  "static",
    "dynamic",     "history",    "bert",   "chunked[N]"};

} // namespace

bool
SystemRegistry::applyModifier(SystemSpec &spec, const std::string &token,
                              std::string *error)
{
    std::string policy = token;
    for (const auto &[alias, name] : kPolicyAliases) {
        if (token == alias)
            policy = name;
    }
    long long value = 0;
    // A policy name sets its axis: eviction (validate() rejects it on a
    // cacheless base), scheduler or adapter management.
    if (evictionPolicyTable().byName(policy, &spec.adapters.eviction) ||
        schedulerPolicyTable().byName(policy, &spec.scheduler.policy) ||
        adapterPolicyTable().byName(policy, &spec.adapters.policy))
        return true;
    // Knobs.
    if (token == "noprefetch") {
        spec.adapters.predictivePrefetch = false;
        spec.adapters.prefetchTopK = 0;
    } else if (splitNumericSuffix(token, "prefetch", &value)) {
        spec.adapters.predictivePrefetch = true;
        spec.adapters.prefetchTopK =
            value < 0 ? 8 : static_cast<std::size_t>(value);
    } else if (token == "bypass" || token == "nobypass") {
        spec.scheduler.bypass = token == "bypass";
    } else if (token == "static" || token == "dynamic") {
        spec.scheduler.dynamicQueues = token == "dynamic";
    } else if (token == "history" || token == "bert") {
        spec.predictor.kind = token;
    } else if (splitNumericSuffix(token, "chunked", &value)) {
        spec.chunkedPrefill = true;
        if (value >= 0)
            spec.chunkTokens = value;
    } else {
        if (error != nullptr) {
            std::ostringstream os;
            os << "unknown system modifier '+" << token << "'; known: ";
            const auto mods = modifierHelp();
            for (std::size_t i = 0; i < mods.size(); ++i)
                os << (i ? ", " : "") << mods[i];
            *error = os.str();
        }
        return false;
    }
    return true;
}

std::optional<SystemSpec>
SystemRegistry::find(const std::string &name, std::string *error) const
{
    const auto exact = entries_.find(name);
    if (exact != entries_.end())
        return exact->second.spec;

    const auto plus = name.find('+');
    const std::string baseName =
        plus == std::string::npos ? name : name.substr(0, plus);
    const auto base = entries_.find(baseName);
    if (base == entries_.end()) {
        if (error != nullptr) {
            std::ostringstream os;
            os << "unknown system '" << baseName
               << "'; try --list-systems for the registered names "
               << "(compose variants as base+modifier, e.g. "
               << "\"chameleon+gdsf+prefetch\")";
            *error = os.str();
        }
        return std::nullopt;
    }
    SystemSpec spec = base->second.spec;
    if (plus != std::string::npos) {
        std::string rest = name.substr(plus + 1);
        while (true) {
            const auto next = rest.find('+');
            const std::string token = rest.substr(0, next);
            // An empty token means a stray '+' (trailing, leading, or
            // doubled) — reject rather than silently running the base.
            if (token.empty()) {
                if (error != nullptr)
                    *error = "empty modifier in '" + name + "'";
                return std::nullopt;
            }
            if (!applyModifier(spec, token, error))
                return std::nullopt;
            if (next == std::string::npos)
                break;
            rest = rest.substr(next + 1);
        }
    }
    spec.name = name;
    return spec;
}

SystemSpec
SystemRegistry::lookup(const std::string &name) const
{
    std::string error;
    auto spec = find(name, &error);
    if (!spec.has_value())
        CHM_FATAL(error);
    return *spec;
}

std::vector<std::string>
SystemRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out;
}

const std::string &
SystemRegistry::description(const std::string &name) const
{
    static const std::string empty;
    const auto it = entries_.find(name);
    return it == entries_.end() ? empty : it->second.description;
}

std::vector<std::string>
SystemRegistry::modifierHelp()
{
    std::vector<std::string> out;
    const auto add = [&out](const auto &table) {
        for (const auto &entry : table.entries())
            out.emplace_back(entry.name);
    };
    add(evictionPolicyTable());
    add(schedulerPolicyTable());
    add(adapterPolicyTable());
    out.insert(out.end(), std::begin(kKnobModifiers),
               std::end(kKnobModifiers));
    return out;
}

} // namespace chameleon::core
