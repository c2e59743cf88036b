#include "sweep/sweep_spec.h"

#include <limits>
#include <sstream>

#include "chameleon/spec_json.h"
#include "chameleon/system_registry.h"
#include "model/llm.h"
#include "simkit/check.h"
#include "simkit/json.h"

namespace chameleon::sweep {

using sim::JsonValue;

serving::EngineConfig
paperTestbedEngine()
{
    serving::EngineConfig engine;
    engine.model = model::llama7B();
    engine.gpu = model::a40();
    return engine;
}

SweepAxis
SweepAxis::parse(std::string path, const std::vector<std::string> &texts)
{
    SweepAxis axis{std::move(path), {}};
    for (const auto &text : texts)
        axis.values.push_back(core::overrideValue(text));
    return axis;
}

std::string
SweepSpec::outputPath() const
{
    return output.empty() ? "BENCH_" + name + ".json" : output;
}

namespace {

/**
 * An array under `key` whose items `convert` accepts (`what` names
 * them in errors). Empty arrays fail unless `allowEmpty`: an empty
 * axis silently replaced by its default would run a grid the author
 * never wrote.
 */
template <typename T, typename Convert>
bool
listOf(sim::JsonObjectReader &r, const std::string &key, const char *what,
       std::vector<T> *out, Convert convert, bool allowEmpty = false)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, std::string("expects an array of ") + what);
    if (!allowEmpty && v->items().empty())
        return r.fail(key, "must not be an empty array (omit the key "
                           "to use the default)");
    out->clear();
    for (const auto &item : v->items()) {
        T value{};
        if (!convert(item, &value))
            return r.fail(key, std::string("expects an array of ") + what);
        out->push_back(std::move(value));
    }
    return true;
}

bool
toString(const JsonValue &item, std::string *out)
{
    *out = item.asString();
    return item.isString();
}

bool
toDouble(const JsonValue &item, double *out)
{
    *out = item.asNumber();
    return item.isNumber();
}

bool
toInt(const JsonValue &item, int *out)
{
    *out = static_cast<int>(item.asInt());
    return item.isIntegral() && !item.isUnsignedIntegral() &&
           item.asInt() >= std::numeric_limits<int>::min() &&
           item.asInt() <= std::numeric_limits<int>::max();
}

bool
workloadFromJson(const JsonValue &v, SweepWorkload *out,
                 std::string *error)
{
    sim::JsonObjectReader r(v, "workload", error);
    r.getString("preset", &out->preset);
    r.getDouble("duration_s", &out->durationSeconds);
    r.getInt("adapters", &out->adapters);
    r.getString("adapter_popularity", &out->adapterPopularity);
    auto getOptDouble = [&r](const char *key,
                             std::optional<double> *slot) {
        const JsonValue *v = r.child(key);
        if (v == nullptr)
            return r.ok();
        if (!v->isNumber())
            return r.fail(key, "expects a number");
        *slot = v->asNumber();
        return true;
    };
    getOptDouble("burst_multiplier", &out->burstMultiplier);
    getOptDouble("burst_period_s", &out->burstPeriodSeconds);
    getOptDouble("burst_duration_s", &out->burstDurationSeconds);
    r.getInt("tenants", &out->tenants);
    r.getDouble("tenant_storm", &out->tenantStorm);
    if (!r.finish())
        return false;
    if (out->tenants < 1) {
        return r.fail("tenants", "must be >= 1 (1 = the anonymous "
                                 "single-tenant default)");
    }
    if (out->tenantStorm > 1.0 && out->tenants < 2) {
        return r.fail("tenant_storm",
                      "needs \"tenants\" >= 2; a storm is one tenant "
                      "bursting against the others");
    }
    workload::TraceGenConfig preset;
    if (!workload::tracePresetByName(out->preset, &preset)) {
        return r.fail("preset", "unknown value \"" + out->preset +
                                    "\"; known: " +
                                    workload::tracePresetNames());
    }
    if (!out->adapterPopularity.empty() &&
        out->adapterPopularity != "uniform" &&
        out->adapterPopularity != "powerlaw") {
        return r.fail("adapter_popularity",
                      "unknown value \"" + out->adapterPopularity +
                          "\"; known: uniform, powerlaw");
    }
    return true;
}

bool
axesFromJson(const JsonValue &v, std::vector<SweepAxis> *out,
             std::string *error)
{
    auto fail = [error](const std::string &message) {
        if (error != nullptr)
            *error = "\"axes\" " + message;
        return false;
    };
    if (!v.isObject())
        return fail("expects an object of spec path -> value array");
    for (const auto &[path, values] : v.members()) {
        if (path == "cluster.replicas" || path == "cluster.fleet") {
            return fail("key \"" + path + "\" is the deployment axis; "
                        "use the top-level \"replicas\" or \"fleets\" "
                        "key");
        }
        if (!values.isArray() || values.items().empty())
            return fail("key \"" + path +
                        "\" expects a non-empty array of values");
        out->push_back(SweepAxis{path, values.items()});
    }
    return true;
}

/** A value as cell-label text: strings unquoted, the rest as JSON. */
std::string
valueText(const JsonValue &value)
{
    if (value.isString())
        return value.asString();
    std::string text = value.dump();
    text.pop_back(); // dump()'s trailing newline
    return text;
}

/** Overrides as "path=value, ..." for cell labels. */
std::string
label(const core::SpecOverrides &overrides)
{
    std::string text;
    for (const auto &[path, value] : overrides)
        text += (text.empty() ? "" : ", ") + path + "=" + valueText(value);
    return text;
}

} // namespace

std::optional<SweepSpec>
sweepFromJson(const std::string &text, std::string *error)
{
    std::string parseError;
    auto doc = sim::parseJson(text, &parseError);
    if (!doc.has_value()) {
        if (error != nullptr)
            *error = "sweep json: " + parseError;
        return std::nullopt;
    }

    SweepSpec spec;

    auto failure = [error]() -> std::optional<SweepSpec> {
        if (error != nullptr && error->rfind("sweep json:", 0) != 0)
            *error = "sweep json: " + *error;
        return std::nullopt;
    };

    sim::JsonObjectReader r(*doc, "", error);
    r.getString("name", &spec.name);
    listOf(r, "systems", "strings", &spec.systems, toString,
           /*allowEmpty=*/true); // caught below as "nothing to run"
    listOf(r, "loads", "numbers", &spec.loads, toDouble);
    r.getBool("rps_per_replica", &spec.rpsPerReplica);
    listOf(r, "replicas", "32-bit integers", &spec.replicas, toInt);
    listOf(r, "fleets", "strings", &spec.fleets, toString);
    if (const JsonValue *a = r.child("axes")) {
        if (!axesFromJson(*a, &spec.axes, error))
            return failure();
    }
    if (const JsonValue *w = r.child("workload")) {
        if (!workloadFromJson(*w, &spec.workload, error))
            return failure();
    }
    r.getUint64("seed", &spec.seed);
    r.getInt("threads", &spec.threads);
    r.getString("output", &spec.output);
    if (!r.finish())
        return failure();

    if (spec.systems.empty()) {
        if (error != nullptr)
            *error = "sweep json: nothing to run; give \"systems\"";
        return std::nullopt;
    }
    if (!spec.fleets.empty() && !spec.replicas.empty()) {
        if (error != nullptr)
            *error = "sweep json: \"fleets\" conflicts with "
                     "\"replicas\"; a fleet preset already fixes each "
                     "cell's replica count";
        return std::nullopt;
    }
    if (spec.threads < 1) {
        if (error != nullptr)
            *error = "sweep json: \"threads\" must be >= 1";
        return std::nullopt;
    }
    for (const double rps : spec.loads) {
        if (rps <= 0.0) {
            if (error != nullptr)
                *error = "sweep json: \"loads\" entries must be > 0";
            return std::nullopt;
        }
    }
    if (spec.workload.durationSeconds <= 0.0) {
        if (error != nullptr)
            *error = "sweep json: \"workload.duration_s\" must be > 0";
        return std::nullopt;
    }
    if (spec.workload.adapters < 0) {
        // A negative count would silently run base-only and misread
        // as a valid sweep with empty cache columns.
        if (error != nullptr)
            *error = "sweep json: \"workload.adapters\" must be >= 0 "
                     "(0 = base-only workload)";
        return std::nullopt;
    }
    return spec;
}

workload::TraceGenConfig
cellTraceConfig(const SweepSpec &spec, double rps, std::uint64_t traceSeed)
{
    workload::TraceGenConfig wl;
    CHM_CHECK(workload::tracePresetByName(spec.workload.preset, &wl),
              "unknown sweep workload preset \""
                  << spec.workload.preset << "\"; known: "
                  << workload::tracePresetNames());
    wl.rps = rps;
    wl.durationSeconds = spec.workload.durationSeconds;
    wl.numAdapters = spec.workload.adapters;
    if (spec.workload.adapterPopularity == "uniform")
        wl.adapterPopularity = workload::Popularity::Uniform;
    else if (spec.workload.adapterPopularity == "powerlaw")
        wl.adapterPopularity = workload::Popularity::PowerLaw;
    if (spec.workload.burstMultiplier.has_value())
        wl.burstMultiplier = *spec.workload.burstMultiplier;
    if (spec.workload.burstPeriodSeconds.has_value())
        wl.burstPeriodSeconds = *spec.workload.burstPeriodSeconds;
    if (spec.workload.burstDurationSeconds.has_value())
        wl.burstDurationSeconds = *spec.workload.burstDurationSeconds;
    wl.numTenants = spec.workload.tenants;
    wl.stormMultiplier = spec.workload.tenantStorm;
    wl.seed = traceSeed;
    return wl;
}

std::string
SweepCell::axisValue(const std::string &path) const
{
    for (const auto &[axisPath, value] : overrides) {
        if (axisPath == path)
            return valueText(value);
    }
    return "";
}

std::string
SweepCell::axesLabel() const
{
    return label(overrides);
}

std::optional<std::vector<SweepCell>>
expandSweep(const SweepSpec &spec, std::string *error)
{
    const auto &registry = core::SystemRegistry::global();

    const std::vector<double> loads =
        spec.loads.empty() ? std::vector<double>{8.0} : spec.loads;

    // The deployment axis: homogeneous replica counts or heterogeneous
    // fleet presets (mutually exclusive — a fleet already fixes each
    // cell's replica count and GPU mix), as the overrides they stand for.
    if (!spec.fleets.empty() && !spec.replicas.empty()) {
        if (error != nullptr)
            *error = "sweep fleets: conflicts with the \"replicas\" axis; "
                     "a fleet preset already fixes each cell's replica "
                     "count";
        return std::nullopt;
    }
    core::SpecOverrides deployAxis;
    for (const auto &name : spec.fleets)
        deployAxis.emplace_back("cluster.fleet", JsonValue::makeString(name));
    for (const int count : spec.fleets.empty() && spec.replicas.empty()
                               ? std::vector<int>{1}
                               : spec.replicas)
        deployAxis.emplace_back("cluster.replicas", JsonValue::makeInt(count));

    // The spec-path axes' cross product in row-major order (later axes
    // vary fastest), one override list per combination.
    std::vector<core::SpecOverrides> axisCombos{{}};
    for (const auto &axis : spec.axes) {
        std::vector<core::SpecOverrides> next;
        next.reserve(axisCombos.size() * axis.values.size());
        for (const auto &prefix : axisCombos) {
            for (const auto &value : axis.values) {
                next.push_back(prefix);
                next.back().emplace_back(axis.path, value);
            }
        }
        axisCombos = std::move(next);
    }

    std::vector<SweepCell> cells;
    // Cells at the same load (and replica count, when rps_per_replica
    // scales the trace) share one trace so systems compare on identical
    // arrivals; key -> index into the runner's trace table.
    std::vector<std::pair<double, std::uint64_t>> traceKeys;
    for (const auto &system : spec.systems) {
        std::string lookupError;
        auto base = registry.find(system, &lookupError);
        if (!base.has_value()) {
            if (error != nullptr)
                *error = "sweep system \"" + system +
                         "\": " + lookupError;
            return std::nullopt;
        }
        base->engine = paperTestbedEngine();
        base->tenancy.tenants = spec.workload.tenants;
        base->cluster.routerConfig.seed = spec.seed;
        for (std::size_t li = 0; li < loads.size(); ++li) {
            for (const auto &deployment : deployAxis) {
                for (const auto &combo : axisCombos) {
                    SweepCell cell;
                    cell.system = system;
                    if (deployment.first == "cluster.fleet")
                        cell.fleet = deployment.second.asString();
                    cell.overrides = combo;
                    cell.traceSeed =
                        spec.seed + static_cast<std::uint64_t>(li);

                    core::SpecOverrides overrides{deployment};
                    overrides.insert(overrides.end(), combo.begin(),
                                     combo.end());
                    const auto invalid = [&](const std::string &problem) {
                        if (error != nullptr) {
                            std::ostringstream os;
                            os << "sweep cell \"" << system << "\" (load "
                               << loads[li] << ", " << label(overrides)
                               << ") " << problem;
                            *error = os.str();
                        }
                        return std::nullopt;
                    };
                    std::string cellError;
                    auto resolved = core::applySpecOverrides(
                        *base, overrides, &cellError);
                    if (!resolved.has_value())
                        return invalid("is invalid: " + cellError);
                    const auto &model = resolved->engine.model;
                    if (!cells.empty() &&
                        model != cells.front().spec.engine.model) {
                        return invalid(
                            "sets engine.model \"" + model.name +
                            "\" but the first cell runs \"" +
                            cells.front().spec.engine.model.name +
                            "\"; the cells share one adapter pool, so a "
                            "sweep runs one model");
                    }
                    cell.spec = std::move(*resolved);
                    cell.replicaCount = cell.spec.cluster.replicas;
                    cell.rps = spec.rpsPerReplica
                                   ? loads[li] * cell.replicaCount
                                   : loads[li];

                    const std::pair<double, std::uint64_t> key{
                        cell.rps, cell.traceSeed};
                    std::size_t index = traceKeys.size();
                    for (std::size_t i = 0; i < traceKeys.size(); ++i) {
                        if (traceKeys[i] == key) {
                            index = i;
                            break;
                        }
                    }
                    if (index == traceKeys.size())
                        traceKeys.push_back(key);
                    cell.traceIndex = index;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
    return cells;
}

} // namespace chameleon::sweep
