/**
 * @file
 * SystemSpec <-> JSON: reproducible, file-backed system descriptions.
 *
 * specToJson prints a complete SystemSpec — every policy axis, every
 * engine knob, the full ClusterSpec — as pretty JSON; specFromJson
 * parses it back onto the documented defaults. Both walk the one field
 * list per spec struct in spec_schema.h, as SystemSpec::operator==
 * does, so a key is declared once and the pair is round-trip-stable:
 * parse(print(spec)) == spec, asserted by tests/spec_json_test.cc.
 * Only "cluster.replicas" (with the parse-only "cluster.fleet") and
 * the "engine.model"/"engine.gpu" preset shorthands are coded here.
 *
 * Parsing is strict and partial at once: any key may be omitted (its
 * default survives — `{}` is the paper testbed's full Chameleon), but
 * an unknown or mistyped key fails with a message naming the offending
 * key path ("scheduler.polcy", "cluster.replicas expects an integer
 * count or an array of per-replica engine overrides").
 *
 * Heterogeneous fleets: "cluster.replicas" also accepts an ordered
 * array — one engine-override object (or GPU-preset string) per
 * replica, applied onto the top-level "engine" — and "cluster.fleet"
 * accepts a GPU-mix preset like "a100x2+a40x2"
 * (model::tryFleetByName). Printing always emits the fully resolved
 * per-replica engines, so the round trip stays bit-identical.
 * Parsed specs are also run through SystemSpec::validate(), so a
 * config that names a contradiction fails with the same actionable
 * messages the Runner would emit.
 *
 * chameleon_sim exposes this as --config file.json / --dump-config and
 * `--set path=value` (applySpecOverrides); the sweep subsystem
 * (src/sweep/) applies its spec-path "axes" through the same path.
 */

#ifndef CHAMELEON_CHAMELEON_SPEC_JSON_H
#define CHAMELEON_CHAMELEON_SPEC_JSON_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/system_spec.h"
#include "simkit/json.h"
#include "workload/trace_gen.h"

namespace chameleon::core {

/** Serialise the full spec (all axes and knobs) as a JSON document. */
std::string specToJson(const SystemSpec &spec);

/** As specToJson, but as a document model (for embedding/inspection). */
sim::JsonValue specToJsonValue(const SystemSpec &spec);

/**
 * Parse a spec from JSON text. Missing keys keep their defaults
 * (hardware defaults to the paper testbed: Llama-7B on an A40);
 * unknown/mistyped keys and validate() contradictions return
 * std::nullopt with an error naming the offending key.
 */
std::optional<SystemSpec> specFromJson(const std::string &text,
                                       std::string *error = nullptr);

/** As specFromJson, from an already parsed document. */
std::optional<SystemSpec> specFromJsonValue(const sim::JsonValue &root,
                                            std::string *error = nullptr);

/**
 * Read a sweep's "workload" object onto *out: "preset" first, then
 * each key given over it, missing keys keeping *out's values (keys
 * and bounds in spec_schema.h). Strict like specFromJson; a key or a
 * value out of bounds fails naming "workload.<key>".
 */
bool traceConfigFromJson(const sim::JsonValue &v,
                         workload::TraceGenConfig *out,
                         std::string *error = nullptr);

/** One `path=value` override: a dotted spec path and its value. */
using SpecOverride = std::pair<std::string, sim::JsonValue>;
using SpecOverrides = std::vector<SpecOverride>;

/** Override value text: a JSON literal when it parses as one ("true",
 * "8000", "[1,2]"), else the text as a bare string ("jsq", "a100-48"). */
sim::JsonValue overrideValue(const std::string &text);

/**
 * The one override path behind `chameleon_sim --set` and sweep "axes":
 * dump `base` (specToJsonValue), write each value at its path in
 * order, and parse the tree once (specFromJsonValue), so strict keys,
 * enum-name errors and validate() apply exactly as to a config file.
 * A path names a key --dump-config prints, with "key[i]" for entry i
 * of an array ("cluster.replicas[1].max_running", "tenancy.weights[0]");
 * the parse-only "cluster.fleet" replaces "cluster.replicas" (and
 * vice versa). An unknown path fails naming it and listing its
 * sibling keys.
 */
std::optional<SystemSpec> applySpecOverrides(const SystemSpec &base,
                                             const SpecOverrides &overrides,
                                             std::string *error = nullptr);

/**
 * The CLI's no-effect guards: reject a "cluster.router*" override on a
 * single fixed replica, a "cluster.autoscaler.*" one without
 * autoscaling, and "fabric.topology"/"fabric.top_k" with migration
 * off — runs that would misread as the overridden configuration.
 * Sweeps skip this: a single-valued axis stamps every cell.
 */
bool checkOverridesTakeEffect(const SystemSpec &spec,
                              const SpecOverrides &overrides,
                              std::string *error = nullptr);

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SPEC_JSON_H
