#include "chameleon/spec_json.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <vector>

#include "chameleon/spec_schema.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/time.h"

namespace chameleon::core {

using sim::JsonValue;

namespace {

// ---------------------------------------------------------------------
// Printing: one walk over the field lists (spec_schema.h).
// ---------------------------------------------------------------------

template <class T>
JsonValue toJson(const T &object);

JsonValue toJson(bool v) { return JsonValue::makeBool(v); }
JsonValue toJson(int v) { return JsonValue::makeInt(v); }
JsonValue toJson(std::int64_t v) { return JsonValue::makeInt(v); }
JsonValue toJson(double v) { return JsonValue::makeNumber(v); }
JsonValue toJson(const std::string &v) { return JsonValue::makeString(v); }

JsonValue
toJson(std::size_t v)
{
    return JsonValue::makeInt(static_cast<std::int64_t>(v));
}

JsonValue
toJson(const std::vector<double> &list)
{
    JsonValue array = JsonValue::makeArray();
    for (const double v : list)
        array.push(JsonValue::makeNumber(v));
    return array;
}

JsonValue
toJson(Seconds<const sim::SimTime> time)
{
    return JsonValue::makeNumber(sim::toSeconds(time.v));
}

JsonValue
toJson(Seed<const std::uint64_t> seed)
{
    return JsonValue::makeUint64(seed.v);
}

template <class E>
JsonValue
toJson(Named<E> e)
{
    return JsonValue::makeString(e.table.name(e.v));
}

template <class T>
JsonValue
toJson(Bound<T> bound)
{
    return toJson(bound.v);
}

template <class N, class E>
JsonValue
toJson(Replicas<N, E> deployment)
{
    if (deployment.engines.empty())
        return JsonValue::makeInt(deployment.count.v);
    // Heterogeneous fleet: "replicas" becomes the ordered list of fully
    // resolved per-replica engines. Printing every field (rather than a
    // diff against "engine") keeps the round trip exact whatever base
    // the overrides were applied onto.
    JsonValue list = JsonValue::makeArray();
    for (const auto &engine : deployment.engines)
        list.push(toJson(engine));
    return list;
}

struct Printer
{
    JsonValue &object;

    template <class T>
    void operator()(const char *key, const T &field)
    {
        object.set(key, toJson(field));
    }

    template <class T>
    void operator()(const char *, Derived<T>)
    {
    }
};

template <class T>
JsonValue
toJson(const T &object)
{
    JsonValue o = JsonValue::makeObject();
    fields(Of<T>{}, Printer{o}, object);
    return o;
}

// ---------------------------------------------------------------------
// Parsing: the same walk, onto the defaults already in the target.
// ---------------------------------------------------------------------

/**
 * The preset-name shorthands of "engine.model" and "engine.gpu" (and of
 * a "cluster.replicas" entry); `instead` names the longhand form.
 */
bool
readPreset(const std::string &name, const std::string &path,
           model::ModelSpec *out, std::string *error,
           const char *instead = "a full model object")
{
    if (model::tryModelByName(name, out))
        return true;
    if (error != nullptr)
        *error = "\"" + path + "\" unknown model preset \"" + name +
                 "\"; known: " + model::modelPresetNames() + " (or " +
                 instead + ")";
    return false;
}

bool
readPreset(const std::string &name, const std::string &path,
           model::GpuSpec *out, std::string *error,
           const char *instead = "a full gpu object")
{
    if (model::tryGpuByName(name, out))
        return true;
    if (error != nullptr)
        *error = "\"" + path + "\" unknown gpu preset \"" + name +
                 "\"; known: " + model::gpuPresetNames() + " (or " +
                 instead + ")";
    return false;
}

template <class T>
bool readObject(const JsonValue &v, const std::string &path, T *out,
                std::string *error, const serving::EngineConfig *baseEngine);

/**
 * Reads one JSON object's keys into the fields its list visits; missing
 * keys keep the target's values. `baseEngine` is the parsed top-level
 * engine, onto which "cluster.replicas" entries apply.
 */
class Reader
{
  public:
    Reader(const JsonValue &v, const std::string &path, std::string *error,
           const serving::EngineConfig *baseEngine)
        : r_(v, path, error), error_(error), baseEngine_(baseEngine)
    {
    }

    template <class T>
    void operator()(const char *key, T &&field)
    {
        if (nestedOk_)
            read(key, field);
    }

    /** True when every key read and no unknown key is left. */
    bool finish() { return nestedOk_ && r_.finish(); }

  private:
    void read(const char *key, bool &v) { r_.getBool(key, &v); }
    void read(const char *key, int &v) { r_.getInt(key, &v); }
    void read(const char *key, std::int64_t &v) { r_.getInt64(key, &v); }
    void read(const char *key, std::size_t &v) { r_.getSize(key, &v); }
    void read(const char *key, double &v) { r_.getDouble(key, &v); }
    void read(const char *key, std::string &v) { r_.getString(key, &v); }

    /** An array of numbers; empty allowed (= "use the defaults"). */
    void
    read(const char *key, std::vector<double> &out)
    {
        const JsonValue *v = r_.child(key);
        if (v == nullptr)
            return;
        if (!v->isArray()) {
            r_.fail(key, "expects an array of numbers");
            return;
        }
        out.clear();
        for (const auto &item : v->items()) {
            if (!item.isNumber()) {
                r_.fail(key, "expects an array of numbers");
                return;
            }
            out.push_back(item.asNumber());
        }
    }

    void
    read(const char *key, Seconds<sim::SimTime> time)
    {
        double seconds = sim::toSeconds(time.v);
        if (r_.getDouble(key, &seconds))
            time.v = sim::fromSeconds(seconds);
    }

    void
    read(const char *key, Seed<std::uint64_t> seed)
    {
        r_.getUint64(key, &seed.v);
    }

    template <class E>
    void
    read(const char *key, Named<E> e)
    {
        r_.getEnum(key, &e.v, e.table);
    }

    template <class T>
    void
    read(const char *key, Bound<T> bound)
    {
        read(key, bound.v);
    }

    template <class T>
    void read(const char *, Derived<T>)
    {
    }

    void
    read(const char *key, TracePreset<workload::TraceGenConfig> preset)
    {
        const JsonValue *v = r_.child(key);
        if (v != nullptr &&
            !(v->isString() &&
              workload::tracePresetByName(v->asString(), &preset.v))) {
            r_.fail(key, "expects a trace preset name; known: " +
                             std::string(workload::tracePresetNames()));
        }
    }

    void read(const char *key,
              Replicas<int, std::vector<serving::EngineConfig>> deployment);

    /** A nested object: its own reader, under `key`'s path. */
    template <class T>
    void
    read(const char *key, T &object)
    {
        if (const JsonValue *child = r_.child(key))
            nestedOk_ = readObject(*child, r_.pathOf(key), &object, error_,
                                   baseEngine_);
    }

    sim::JsonObjectReader r_;
    std::string *error_;
    const serving::EngineConfig *baseEngine_;
    bool nestedOk_ = true;
};

/**
 * "replicas" is polymorphic: an integer count (homogeneous fleet, every
 * replica from the top-level "engine") or an ordered array of
 * per-replica engine overrides applied onto that base engine. "fleet"
 * is a shorthand for the array form: a GPU-mix preset like
 * "a100x2+a40x2" expands to one base-engine replica per GPU.
 */
void
Reader::read(const char *key,
             Replicas<int, std::vector<serving::EngineConfig>> deployment)
{
    int &count = deployment.count.v;
    std::vector<serving::EngineConfig> &engines = deployment.engines;
    const std::string path = r_.pathOf("");
    const JsonValue *replicas = r_.child(key);
    const JsonValue *fleet = r_.child("fleet");
    if (replicas != nullptr && fleet != nullptr) {
        r_.fail("fleet", "conflicts with \"" + path +
                             ".replicas\"; the fleet preset already "
                             "defines the replica count and GPU mix");
        return;
    }
    if (replicas != nullptr) {
        if (replicas->isArray()) {
            if (replicas->items().empty()) {
                r_.fail(key, "must not be an empty array; use an integer "
                             "count for a homogeneous fleet");
                return;
            }
            engines.clear();
            for (std::size_t i = 0; i < replicas->items().size(); ++i) {
                const JsonValue &entry = replicas->items()[i];
                std::ostringstream entryPath;
                entryPath << path << ".replicas[" << i << "]";
                serving::EngineConfig cfg = *baseEngine_;
                // A bare string is the GPU-preset shorthand.
                nestedOk_ =
                    entry.isString()
                        ? readPreset(entry.asString(), entryPath.str(),
                                     &cfg.gpu, error_,
                                     "an engine-override object")
                        : readObject(entry, entryPath.str(), &cfg, error_,
                                     baseEngine_);
                if (!nestedOk_)
                    return;
                engines.push_back(std::move(cfg));
            }
            count = static_cast<int>(engines.size());
        } else if (replicas->isNumber() && replicas->isIntegral() &&
                   !replicas->isUnsignedIntegral() &&
                   replicas->asInt() >= std::numeric_limits<int>::min() &&
                   replicas->asInt() <= std::numeric_limits<int>::max()) {
            count = static_cast<int>(replicas->asInt());
        } else {
            r_.fail(key, "expects an integer count or an array of "
                         "per-replica engine overrides");
            return;
        }
    }
    if (fleet != nullptr) {
        if (!fleet->isString()) {
            r_.fail("fleet", "expects a fleet-preset string: " +
                                 model::fleetGrammarHelp());
            return;
        }
        std::vector<model::GpuSpec> gpus;
        if (!model::tryFleetByName(fleet->asString(), &gpus)) {
            r_.fail("fleet", "unknown fleet preset \"" + fleet->asString() +
                                 "\"; expected " +
                                 model::fleetGrammarHelp());
            return;
        }
        engines = serving::fleetEngines(*baseEngine_, gpus);
        count = static_cast<int>(engines.size());
    }
}

/**
 * Apply a JSON object onto *out (missing keys keep existing values).
 * `path` prefixes error key paths. "engine.model" and "engine.gpu" also
 * take a preset name in place of the field-by-field object.
 */
template <class T>
bool
readObject(const JsonValue &v, const std::string &path, T *out,
           std::string *error, const serving::EngineConfig *baseEngine)
{
    if constexpr (std::is_same_v<T, model::ModelSpec> ||
                  std::is_same_v<T, model::GpuSpec>) {
        if (v.isString())
            return readPreset(v.asString(), path, out, error);
    }
    Reader reader(v, path, error, baseEngine);
    fields(Of<T>{}, reader, *out);
    return reader.finish();
}

/** Uniform "spec json: " prefix on whatever a nested reader wrote. */
std::optional<SystemSpec>
specParseFailure(std::string *error)
{
    if (error != nullptr && error->rfind("spec json:", 0) != 0)
        *error = "spec json: " + *error;
    return std::nullopt;
}

} // namespace

JsonValue
specToJsonValue(const SystemSpec &spec)
{
    return toJson(spec);
}

std::string
specToJson(const SystemSpec &spec)
{
    return specToJsonValue(spec).dump();
}

std::optional<SystemSpec>
specFromJsonValue(const JsonValue &root, std::string *error)
{
    SystemSpec spec;
    // The documented parse base: the paper testbed's hardware under the
    // default (full Chameleon) axes, so `{}` is a runnable config.
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();

    // "engine" precedes "cluster" in the field list, so per-replica
    // overrides in "cluster.replicas"/"cluster.fleet" apply onto the
    // parsed base engine, wherever the keys appeared in the document.
    if (!readObject(root, "", &spec, error, &spec.engine))
        return specParseFailure(error);

    const auto problems = spec.validate();
    if (!problems.empty()) {
        if (error != nullptr) {
            std::ostringstream os;
            os << "spec json: \"" << spec.name
               << "\" parses but fails validation:";
            for (const auto &p : problems)
                os << "\n  - " << p;
            *error = os.str();
        }
        return std::nullopt;
    }
    return spec;
}

std::optional<SystemSpec>
specFromJson(const std::string &text, std::string *error)
{
    std::string parseError;
    auto doc = sim::parseJson(text, &parseError);
    if (!doc.has_value()) {
        if (error != nullptr)
            *error = "spec json: " + parseError;
        return std::nullopt;
    }
    return specFromJsonValue(*doc, error);
}

bool
traceConfigFromJson(const JsonValue &v, workload::TraceGenConfig *out,
                    std::string *error)
{
    if (!readObject(v, "workload", out, error, nullptr))
        return false;
    std::vector<std::string> problems;
    checkBounds(*out, &problems);
    if (!problems.empty() && error != nullptr)
        *error = problems.front();
    return problems.empty();
}

JsonValue
overrideValue(const std::string &text)
{
    auto literal = sim::parseJson(text);
    return literal ? std::move(*literal) : JsonValue::makeString(text);
}

namespace {

/** Write `value` at dotted `path` in the dumped spec tree `root`. */
bool
setPath(JsonValue &root, const std::string &path, const JsonValue &value,
        std::string *error)
{
    auto fail = [&](const std::string &problem) {
        if (error != nullptr)
            *error = "spec override \"" + path + "\": " + problem;
        return false;
    };
    JsonValue *node = &root;
    std::string walked; // the path above `node`
    for (std::size_t start = 0;;) {
        const std::size_t dot = path.find('.', start);
        // "key[i]" steps into entry i of the array at "key".
        const std::string segment = path.substr(start, dot - start);
        const std::size_t bracket = segment.find('[');
        const std::string key = segment.substr(0, bracket);
        const bool leaf = dot == std::string::npos;
        if (!node->isObject())
            return fail("\"" + walked + "\" is not an object");
        if (leaf && bracket == std::string::npos && walked == "cluster" &&
            (key == "replicas" || key == "fleet")) {
            // The deployment is one of the two: the parse-only fleet
            // preset replaces the replica count or list, and back.
            node->erase("replicas");
            node->erase("fleet");
            node->set(key, value);
            return true;
        }
        JsonValue *child = node->find(key);
        if (child == nullptr) {
            std::string known;
            for (const auto &member : node->members())
                known += (known.empty() ? "" : ", ") + member.first;
            if (walked == "cluster" && node->find("fleet") == nullptr)
                known += ", fleet"; // parse-only, so never dumped
            return fail("no key \"" + key + "\" " +
                        (walked.empty() ? "at the top level"
                                        : "under \"" + walked + "\"") +
                        "; known: " + known);
        }
        walked += (walked.empty() ? "" : ".") + key;
        if (bracket != std::string::npos) {
            const std::string index = segment.substr(bracket + 1);
            const std::size_t i = std::strtoul(index.c_str(), nullptr, 10);
            if (!child->isArray() || index.size() < 2 ||
                index.back() != ']' ||
                index.find_first_not_of("0123456789") != index.size() - 1 ||
                i >= child->items().size())
                return fail("\"" + walked + "\" has no entry [" + index);
            child = &child->items()[i];
            walked += "[" + index;
        }
        if (leaf) {
            *child = value;
            return true;
        }
        node = child;
        start = dot + 1;
    }
}

} // namespace

std::optional<SystemSpec>
applySpecOverrides(const SystemSpec &base, const SpecOverrides &overrides,
                   std::string *error)
{
    JsonValue root = specToJsonValue(base);
    for (const auto &[path, value] : overrides) {
        // A fleet preset's replicas are addressable by index once it
        // expands, onto the engine as overridden so far.
        const JsonValue *cluster = root.find("cluster");
        if (path.rfind("cluster.replicas[", 0) == 0 && cluster != nullptr &&
            cluster->find("fleet") != nullptr) {
            SystemSpec expanded;
            if (!readObject(root, "", &expanded, error, &expanded.engine))
                return specParseFailure(error);
            root = specToJsonValue(expanded);
        }
        if (!setPath(root, path, value, error))
            return std::nullopt;
    }
    return specFromJsonValue(root, error);
}

bool
checkOverridesTakeEffect(const SystemSpec &spec,
                         const SpecOverrides &overrides, std::string *error)
{
    const std::string migrationOn =
        std::string("fabric.migration other than off (known: ") +
        fabric::migrationPolicyNames() + ")";
    // {path prefix, does the resolved spec ignore it, what it needs}
    const std::tuple<const char *, bool, std::string> guards[] = {
        {"cluster.router",
         spec.cluster.replicas <= 1 && !spec.cluster.autoscale,
         "a cluster to route: cluster.replicas > 1 (--replicas, "
         "--fleet) or cluster.autoscale=true"},
        {"cluster.autoscaler.", !spec.cluster.autoscale,
         "cluster.autoscale=true"},
        {"fabric.topology", !spec.fabric.enabled(), migrationOn},
        {"fabric.top_k", !spec.fabric.enabled(), migrationOn},
    };
    for (const auto &override : overrides) {
        for (const auto &[prefix, ignored, needs] : guards) {
            if (!ignored || override.first.rfind(prefix, 0) != 0)
                continue;
            if (error != nullptr)
                *error = "spec override \"" + override.first +
                         "\" has no effect: it needs " + needs;
            return false;
        }
    }
    return true;
}

} // namespace chameleon::core
