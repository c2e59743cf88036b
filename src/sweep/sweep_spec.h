/**
 * @file
 * SweepSpec: a declarative grid of scenarios over the system registry.
 *
 * The paper's evaluation is a grid — systems x loads x traces x
 * policies. A SweepSpec names one such grid: a list of registry system
 * names (composed variants like "chameleon+lru" included), crossed
 * with axes. An axis is a key --dump-config prints
 * ("cluster.router", "cluster.replicas", "cluster.fleet") or a key of
 * the workload block ("workload.rps"), with its values; a
 * single-valued axis sets its key in every cell without adding cells.
 * expandSweep() resolves it into concrete SweepCells — one fully
 * validated core::SystemSpec and trace configuration per grid cell —
 * which the SweepRunner (sweep_runner.h) executes into one
 * consolidated BenchJson.
 *
 * Every cell starts from its registry spec on the paper testbed
 * (paperTestbedEngine) and from the sweep's workload; the workload's
 * keys and bounds are the schema's (chameleon/spec_schema.h), and its
 * tenant count is the cell's tenancy.tenants. Loaded from JSON
 * (sweepFromJson; grammar documented in src/sweep/README.md):
 *
 *   {
 *     "name": "fig17_policy_grid",
 *     "seed": 42,
 *     "systems": ["slora", "chameleon+paper", "chameleon+lru",
 *                 "chameleon+fairshare", "chameleon+gdsf"],
 *     "workload": {"preset": "splitwise", "rps": 8.0,
 *                  "duration_s": 300, "adapters": 200},
 *     "axes": {"engine.workspace_per_gpu": [25769803776]}
 *   }
 *
 * Determinism: every cell's trace is generated with the sweep's
 * `seed`, so a cell draws the trace a single run of its configuration
 * at that seed draws; cells share a trace exactly when their trace
 * configurations are equal (every system at a load runs the identical
 * trace), and cells that differ in a workload key run distinct traces.
 * Router sampling streams are seeded with `seed` too. A replicate is
 * the same sweep at another `seed`. Same sweep JSON + seed =>
 * identical cells, traces, and BenchJson, asserted by
 * tests/sweep_test.cc.
 */

#ifndef CHAMELEON_SWEEP_SWEEP_SPEC_H
#define CHAMELEON_SWEEP_SWEEP_SPEC_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/spec_json.h"
#include "chameleon/system_spec.h"
#include "simkit/json.h"
#include "workload/trace_gen.h"

namespace chameleon::sweep {

/** The paper testbed's hardware (Llama-7B on an A40): the engine
 * every sweep cell starts from, for the C++ and JSON paths alike. */
serving::EngineConfig paperTestbedEngine();

/** One axis: a key --dump-config prints ("cluster.router") or a
 * workload key ("workload.rps"), and its values, applied as
 * `chameleon_sim --set` applies them. */
struct SweepAxis
{
    std::string path;
    std::vector<sim::JsonValue> values;

    /** An axis from value texts, each read as a `--set` value is
     * (core::overrideValue: "jsq", "true", "8000"). */
    static SweepAxis parse(std::string path,
                           const std::vector<std::string> &texts);
};

/** The sweep description; see file comment for the JSON grammar. */
struct SweepSpec
{
    std::string name = "sweep";

    /** Registry names ("chameleon", "slora+sjf", ...); required. */
    std::vector<std::string> systems;

    /** Multiply each cell's rps by its replica count (fig26-style). */
    bool rpsPerReplica = false;
    /**
     * Axes, crossed in order (later axes vary fastest): spec paths,
     * and "workload.<key>" for any workload key but "preset". The
     * cells share one adapter pool, so "workload.adapters" takes one
     * value, and a cell deploys "cluster.replicas" or "cluster.fleet",
     * not both.
     */
    std::vector<SweepAxis> axes;

    /** The workload every cell's trace starts from ("workload"). */
    workload::TraceGenConfig workload = workload::splitwiseLike();

    /** Master seed: every cell's trace and router use it. */
    std::uint64_t seed = 42;
    /** Worker threads for the runner (1 = serial). */
    int threads = 1;
    /** BenchJson output path; "" = "BENCH_<name>.json". */
    std::string output;

    /** The resolved output path. */
    std::string outputPath() const;
};

/** One concrete grid cell with its fully resolved system spec. */
struct SweepCell
{
    std::string system;
    /** The cell's value of each axis, in axis order; its spec is the
     * system's with the spec paths applied, its trace the sweep's
     * workload with the workload keys applied. */
    core::SpecOverrides overrides;
    /** The configuration (seed included) of the cell's trace. */
    workload::TraceGenConfig trace;
    /** Index of the shared trace this cell runs (SweepRunner). */
    std::size_t traceIndex = 0;
    core::SystemSpec spec;

    /** The value of axis `path` as text (strings unquoted); "" when
     * `path` is not an axis of the sweep. */
    std::string axisValue(const std::string &path) const;
    /** Every axis as "path=value", comma-separated ("" = no axes). */
    std::string axesLabel() const;
};

/**
 * Parse a sweep description from JSON text. Strict keys with
 * offending-key error messages, like core::specFromJson.
 */
std::optional<SweepSpec> sweepFromJson(const std::string &text,
                                       std::string *error = nullptr);

/**
 * Expand the spec into concrete cells: systems x each axis, in that
 * nesting order (system outermost, the last axis innermost). Resolves
 * every system name through the global registry, every cell's spec
 * paths through core::applySpecOverrides and its workload keys
 * through core::traceConfigFromJson; returns std::nullopt with an
 * actionable message naming the offending cell on failure. The cells
 * share one adapter pool, so they must all resolve to the same
 * engine.model.
 */
std::optional<std::vector<SweepCell>> expandSweep(
    const SweepSpec &spec, std::string *error = nullptr);

} // namespace chameleon::sweep

#endif // CHAMELEON_SWEEP_SWEEP_SPEC_H
