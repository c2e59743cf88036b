/**
 * @file
 * SweepSpec: a declarative grid of scenarios over the system registry.
 *
 * The paper's evaluation is a grid — systems x loads x traces x
 * policies. A SweepSpec names one such grid: a list of registry system
 * names (composed variants like "chameleon+lru" included), crossed
 * with load (rps), replica-count (or heterogeneous fleet-preset), and
 * spec-path axes over any key --dump-config prints
 * ("axes": {"cluster.router": ["jsq", "p2c"]}). A single-valued axis
 * sets its key in every cell without adding cells. expandSweep()
 * resolves it into concrete SweepCells — one fully validated
 * core::SystemSpec per grid cell — which the SweepRunner
 * (sweep_runner.h) executes into one consolidated BenchJson.
 *
 * Every cell starts from its registry spec on the paper testbed
 * (paperTestbedEngine); hardware and predictor knobs are spec paths
 * like any other. There is no modifier cross-product and no engine or
 * predictor template: list the composed names, and put hardware in an
 * axis — `"grid": {"base": "chameleon", "axes": [["lru", "gdsf"]]}`
 * is `"systems": ["chameleon+lru", "chameleon+gdsf"]`, and
 * `"engine": {"workspace_per_gpu": N}` is
 * `"axes": {"engine.workspace_per_gpu": [N]}`. Loaded from JSON
 * (sweepFromJson; grammar documented in src/sweep/README.md):
 *
 *   {
 *     "name": "fig17_policy_grid",
 *     "seed": 42,
 *     "systems": ["slora", "chameleon+paper", "chameleon+lru",
 *                 "chameleon+fairshare", "chameleon+gdsf"],
 *     "loads": [8.0],
 *     "workload": {"preset": "splitwise", "duration_s": 300,
 *                  "adapters": 200},
 *     "axes": {"engine.workspace_per_gpu": [25769803776]}
 *   }
 *
 * Determinism: the trace of load-axis index i is generated with seed
 * `seed + i` (every system at that load runs the identical trace);
 * router sampling streams are seeded with `seed`. Same sweep JSON +
 * seed => identical cells, traces, and BenchJson, asserted by
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

/** One spec-path axis: a key --dump-config prints ("cluster.router")
 * and its values, applied as `chameleon_sim --set` applies them. */
struct SweepAxis
{
    std::string path;
    std::vector<sim::JsonValue> values;

    /** An axis from value texts, each read as a `--set` value is
     * (core::overrideValue: "jsq", "true", "8000"). */
    static SweepAxis parse(std::string path,
                           const std::vector<std::string> &texts);
};

/** Workload template shared by every cell (rps comes per cell). */
struct SweepWorkload
{
    /** Trace preset: splitwise | wildchat | lmsys. */
    std::string preset = "splitwise";
    double durationSeconds = 120.0;
    /** Adapter-pool size (0 = base-only workload). */
    int adapters = 100;
    /** "" keeps the preset's default; else uniform | powerlaw. */
    std::string adapterPopularity;
    /**
     * Periodic burstiness overrides (see TraceGenConfig); unset keeps
     * the preset's defaults (splitwise/wildchat ship bursty, §3.1).
     */
    std::optional<double> burstMultiplier;
    std::optional<double> burstPeriodSeconds;
    std::optional<double> burstDurationSeconds;
    /**
     * Tenant axis of the workload: > 1 splits the offered load across
     * this many equal-share tenants (per-tenant arrival processes, see
     * TraceGenConfig). Also stamped onto every cell's
     * spec.tenancy.tenants so WFQ/DRR cells see the declared count.
     */
    int tenants = 1;
    /**
     * Noisy-neighbour storm: tenant 0 bursts to this multiple of its
     * share for the middle half of the trace (<= 1 disables). Requires
     * tenants > 1. Storm cells run under a bounded 30 s drain window
     * (the fig29 convention) so the fairness index measures who gets
     * served while the backlog is contended; a full drain would
     * converge every scheduler to the trace's demand mix.
     */
    double tenantStorm = 1.0;
};

/** The sweep description; see file comment for the JSON grammar. */
struct SweepSpec
{
    std::string name = "sweep";

    /** Registry names ("chameleon", "slora+sjf", ...); required. */
    std::vector<std::string> systems;

    /** Load axis (rps); empty means one load at 8.0. */
    std::vector<double> loads;
    /** Multiply each load by the cell's replica count (fig26-style). */
    bool rpsPerReplica = false;
    /** Replica-count axis; empty means {1}. */
    std::vector<int> replicas;
    /**
     * Heterogeneous-fleet axis: model::tryFleetByName presets
     * ("a40x4", "a100x2+a40x2", ...). Each entry becomes one axis
     * value whose cells deploy that GPU mix (per-replica engines =
     * the cell's engine with the preset's GPUs; replica count = the
     * fleet size). Mutually exclusive with the `replicas` axis — a
     * fleet already fixes the count. Empty = homogeneous sweep.
     */
    std::vector<std::string> fleets;
    /** Spec-path axes, crossed after the deployment axis in order
     * (later axes vary fastest); a single value is a template. */
    std::vector<SweepAxis> axes;

    SweepWorkload workload;

    /** Master seed: traces derive per-load, routers use it directly. */
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
    double rps = 0.0;
    int replicaCount = 1;
    /** Fleet-preset name of the cell ("" on homogeneous sweeps). */
    std::string fleet;
    /** The cell's value of each spec-path axis, in axis order; its
     * spec is the system's with the deployment and these applied. */
    core::SpecOverrides overrides;
    /** Index of the shared trace this cell runs (SweepRunner). */
    std::size_t traceIndex = 0;
    /** Seed the cell's trace is generated with. */
    std::uint64_t traceSeed = 0;
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
 * Expand the spec into concrete cells: systems x loads x replicas (or
 * fleets) x each spec-path axis, in that nesting order (system
 * outermost, the last axis innermost). Resolves every system name
 * through the global registry and every cell's overrides through
 * core::applySpecOverrides; returns std::nullopt with an actionable
 * message naming the offending cell on failure. The cells share one
 * adapter pool, so they must all resolve to the same engine.model.
 */
std::optional<std::vector<SweepCell>> expandSweep(
    const SweepSpec &spec, std::string *error = nullptr);

/** The trace-generator configuration of load-axis entry `rps`. */
workload::TraceGenConfig cellTraceConfig(const SweepSpec &spec, double rps,
                                         std::uint64_t traceSeed);

} // namespace chameleon::sweep

#endif // CHAMELEON_SWEEP_SWEEP_SPEC_H
