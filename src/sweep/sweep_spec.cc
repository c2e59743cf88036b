#include "sweep/sweep_spec.h"

#include <algorithm>
#include <cstring>

#include "chameleon/spec_json.h"
#include "chameleon/system_registry.h"
#include "model/llm.h"
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

/** The prefix of an axis path that names a workload key. */
constexpr const char *kWorkloadPrefix = "workload.";

bool
isWorkloadPath(const std::string &path)
{
    return path.rfind(kWorkloadPrefix, 0) == 0;
}

bool
axesFromJson(const JsonValue &v, std::vector<SweepAxis> *out,
             std::string *error)
{
    if (!v.isObject()) {
        if (error != nullptr)
            *error = "\"axes\" expects an object of path -> value array";
        return false;
    }
    for (const auto &[path, values] : v.members()) {
        if (!values.isArray()) {
            if (error != nullptr)
                *error = "\"axes\" key \"" + path +
                         "\" expects an array of values";
            return false;
        }
        out->push_back(SweepAxis{path, values.items()});
    }
    return true;
}

/** The rules an axis breaks whatever its cell: each holds a value, the
 * preset is no axis, the cells share one adapter pool, and a cell
 * deploys a replica count or a fleet. */
bool
checkAxes(const std::vector<SweepAxis> &axes, std::string *error)
{
    bool replicas = false;
    bool fleet = false;
    for (const auto &axis : axes) {
        const auto fail = [&](const std::string &problem) {
            if (error != nullptr)
                *error = "sweep axis \"" + axis.path + "\" " + problem;
            return false;
        };
        if (axis.values.empty())
            return fail("must not be an empty array (omit the axis to "
                        "use the default)");
        if (axis.path == "workload.preset")
            return fail("is not an axis: the preset replaces the whole "
                        "workload; set it in the \"workload\" block");
        if (axis.path == "workload.adapters" && axis.values.size() > 1)
            return fail("takes one value: the cells share one adapter "
                        "pool, as they share one model");
        replicas = replicas || axis.path == "cluster.replicas";
        fleet = fleet || axis.path == "cluster.fleet";
    }
    if (replicas && fleet && error != nullptr)
        *error = "sweep axes \"cluster.replicas\" and \"cluster.fleet\" "
                 "conflict: a fleet preset already fixes each cell's "
                 "replica count";
    return !(replicas && fleet);
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
    if (const JsonValue *systems = r.child("systems")) {
        for (const auto &item : systems->items()) {
            if (!item.isString())
                break;
            spec.systems.push_back(item.asString());
        }
        if (!systems->isArray() ||
            spec.systems.size() != systems->items().size())
            r.fail("systems", "expects an array of strings");
    }
    r.getBool("rps_per_replica", &spec.rpsPerReplica);
    if (const JsonValue *a = r.child("axes")) {
        if (!axesFromJson(*a, &spec.axes, error))
            return failure();
    }
    if (const JsonValue *w = r.child("workload")) {
        if (!core::traceConfigFromJson(*w, &spec.workload, error))
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
    if (spec.threads < 1) {
        if (error != nullptr)
            *error = "sweep json: \"threads\" must be >= 1";
        return std::nullopt;
    }
    return spec;
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
    if (!checkAxes(spec.axes, error))
        return std::nullopt;
    const auto &registry = core::SystemRegistry::global();

    // The axes' cross product in row-major order (later axes vary
    // fastest): one override list per combination, with the index of
    // its workload.* values in their own cross product, the offset of
    // its trace seed.
    std::vector<std::pair<core::SpecOverrides, std::uint64_t>> combos{{}};
    for (const auto &axis : spec.axes) {
        const bool workloadAxis = isWorkloadPath(axis.path);
        std::vector<std::pair<core::SpecOverrides, std::uint64_t>> next;
        next.reserve(combos.size() * axis.values.size());
        for (const auto &[prefix, index] : combos) {
            for (std::size_t i = 0; i < axis.values.size(); ++i) {
                next.emplace_back(prefix,
                                  workloadAxis
                                      ? index * axis.values.size() + i
                                      : index);
                next.back().first.emplace_back(axis.path, axis.values[i]);
            }
        }
        combos = std::move(next);
    }

    std::vector<SweepCell> cells;
    // Cells share a trace exactly when their trace configurations are
    // equal, so systems compare on identical arrivals; the distinct
    // configurations in order, indexed by SweepCell::traceIndex.
    std::vector<workload::TraceGenConfig> traces;
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
        base->cluster.routerConfig.seed = spec.seed;
        for (const auto &[overrides, workloadIndex] : combos) {
            const auto invalid = [&](const std::string &problem) {
                if (error != nullptr)
                    *error = "sweep cell \"" + system + "\" (" +
                             label(overrides) + ") " + problem;
                return std::nullopt;
            };
            // Spec paths resolve onto the system, workload keys onto
            // the sweep's workload.
            core::SpecOverrides specPaths;
            JsonValue workloadKeys = JsonValue::makeObject();
            for (const auto &[path, value] : overrides) {
                if (isWorkloadPath(path))
                    workloadKeys.set(path.substr(std::strlen(kWorkloadPrefix)),
                                     value);
                else
                    specPaths.emplace_back(path, value);
            }
            SweepCell cell;
            cell.system = system;
            cell.overrides = overrides;
            cell.trace = spec.workload;
            std::string cellError;
            auto resolved =
                core::applySpecOverrides(*base, specPaths, &cellError);
            if (!resolved.has_value() ||
                !core::traceConfigFromJson(workloadKeys, &cell.trace,
                                           &cellError))
                return invalid("is invalid: " + cellError);
            const auto &model = resolved->engine.model;
            if (!cells.empty() && model != cells.front().spec.engine.model) {
                return invalid("sets engine.model \"" + model.name +
                               "\" but the first cell runs \"" +
                               cells.front().spec.engine.model.name +
                               "\"; the cells share one adapter pool, so a "
                               "sweep runs one model");
            }
            cell.spec = std::move(*resolved);
            cell.trace.seed = spec.seed + workloadIndex;
            cell.trace.numTenants = cell.spec.tenancy.tenants;
            if (spec.rpsPerReplica)
                cell.trace.rps *= cell.spec.cluster.replicas;
            if (cell.trace.stormMultiplier > 1.0 &&
                cell.trace.numTenants < 2) {
                return invalid("storms with tenancy.tenants = 1; a storm "
                               "is one tenant bursting against the "
                               "others");
            }
            cell.traceIndex = static_cast<std::size_t>(
                std::find(traces.begin(), traces.end(), cell.trace) -
                traces.begin());
            if (cell.traceIndex == traces.size())
                traces.push_back(cell.trace);
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

} // namespace chameleon::sweep
