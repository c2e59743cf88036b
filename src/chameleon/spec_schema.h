/**
 * @file
 * The spec schema: one field list per spec struct.
 *
 * fields(Of<T>{}, f, s...) names every member of T once, in dump
 * order, as f("json_key", s.member...). The list is the only place a
 * JSON key maps to a member: spec_json.cc prints and strictly reads a
 * SystemSpec by walking the lists, every spec struct's operator==
 * compares field by field over its list, and checkBounds() walks them
 * for the single-key range checks of SystemSpec::validate()
 * (spec_schema.cc). The pack `s...` is one object (print, read,
 * check) or two in step (equality), so adding a knob is its struct
 * field, one line here and its README table row.
 *
 * The C++ type of a member decides its JSON encoding (bool, int,
 * int64, size_t as a non-negative count, double, string, number
 * array, nested object). Where it does not, a tagged wrapper does:
 *  - Seconds: a SimTime (µs) written and read as seconds;
 *  - Seed: a uint64 over its full range (size_t is the same type, but
 *    a plain one is a count capped at int64);
 *  - Named: an enum, printed and parsed through the enum's name table
 *    (sim::NameTable, one per enum, beside the enum), listing the
 *    table's names on a miss;
 *  - Derived: compared, but neither printed nor read (the Runner, a
 *    preset or the sweep sets it from other keys);
 *  - Replicas: "cluster.replicas", an integer count or an array of
 *    per-replica engines (with the parse-only "cluster.fleet");
 *  - TracePreset: the workload's parse-only "preset", a trace preset's
 *    name that replaces the whole configuration before the other keys
 *    apply.
 *
 * The sweep's "workload" block is a workload::TraceGenConfig read
 * through its list here (core::traceConfigFromJson), and
 * chameleon_sim's workload flags are held to the same bounds.
 *
 * A member's range is declared here too, as a Bound around it:
 * atLeast(v, lo) for v >= lo, above(v, lo) for v > lo and
 * within(v, lo, hi) for lo <= v <= hi; on a number list each entry
 * is held to it. The printer, the reader and operator== see through a
 * Bound; checkBounds() reports each value outside its range by the
 * dotted path --set takes. validate() keeps only the rules that
 * relate two keys.
 */

#ifndef CHAMELEON_CHAMELEON_SPEC_SCHEMA_H
#define CHAMELEON_CHAMELEON_SPEC_SCHEMA_H

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "chameleon/system_spec.h"
#include "simkit/name_table.h"
#include "workload/trace_gen.h"

namespace chameleon::core {

/** Simulated time held in µs, encoded as seconds. */
template <class T>
struct Seconds
{
    T &v;
    friend bool operator==(Seconds a, Seconds b) { return a.v == b.v; }
};
template <class T>
Seconds(T &) -> Seconds<T>;

/** A full-range uint64 (a seed), not a count. */
template <class T>
struct Seed
{
    T &v;
    friend bool operator==(Seed a, Seed b) { return a.v == b.v; }
};
template <class T>
Seed(T &) -> Seed<T>;

/** A member compared for equality but absent from the JSON. */
template <class T>
struct Derived
{
    T &v;
    friend bool operator==(Derived a, Derived b) { return a.v == b.v; }
};
template <class T>
Derived(T &) -> Derived<T>;

/** An enum encoded by its name in the enum's name table. */
template <class E>
struct Named
{
    using Enum = std::remove_const_t<E>;
    E &v;
    const sim::NameTable<Enum> &table;
    friend bool operator==(Named a, Named b) { return a.v == b.v; }
};
template <class E>
Named(E &, const sim::NameTable<std::remove_const_t<E>> &) -> Named<E>;

/**
 * A number held to a range: v >= lo (v > lo when `strict`) and
 * v <= hi. A list of numbers holds each entry to it. Built by
 * atLeast(), above() and within().
 */
template <class T>
struct Bound
{
    T &v;
    double lo;
    bool strict;
    double hi;
    friend bool operator==(Bound a, Bound b) { return a.v == b.v; }
};

template <class T>
Bound<T>
atLeast(T &v, double lo)
{
    return {v, lo, false, std::numeric_limits<double>::infinity()};
}

template <class T>
Bound<T>
above(T &v, double lo)
{
    return {v, lo, true, std::numeric_limits<double>::infinity()};
}

template <class T>
Bound<T>
within(T &v, double lo, double hi)
{
    return {v, lo, false, hi};
}

/** The deployment: a replica count plus optional per-replica engines. */
template <class N, class E>
struct Replicas
{
    Bound<N> count;
    E &engines;
    friend bool operator==(Replicas a, Replicas b)
    {
        return a.count == b.count && a.engines == b.engines;
    }
};
template <class N, class E>
Replicas(Bound<N>, E &) -> Replicas<N, E>;

/** The parse-only trace preset; equal always, since the members it
 * sets are compared on their own. */
template <class T>
struct TracePreset
{
    T &v;
    friend bool operator==(TracePreset, TracePreset) { return true; }
};
template <class T>
TracePreset(T &) -> TracePreset<T>;

/**
 * Every Bound of `spec` that is out of range, as "<path> must be >= 1
 * (got 0)", where <path> is the dotted path --set takes
 * ("cluster.replicas[1].max_running", "tenancy.weights[0]"). An
 * unset (default) model or GPU is hardware the caller has yet to
 * choose, as in the presets, and the autoscaler's keys only count
 * with cluster.autoscale on; neither is checked.
 */
void checkBounds(const SystemSpec &spec, std::vector<std::string> *errors);

/** As above for a workload, by its path in a sweep
 * ("workload.burst_duration_s must be >= 0 (got -30)"). */
void checkBounds(const workload::TraceGenConfig &workload,
                 std::vector<std::string> *errors);

/** Selects the field list of spec struct T: fields(Of<T>{}, f, s...). */
template <class T>
struct Of
{
};

template <class F, class... S>
void
fields(Of<model::ModelSpec>, F &&f, S &...s)
{
    f("name", s.name...);
    f("layers", atLeast(s.layers, 1)...);
    f("hidden", s.hidden...);
    f("kv_hidden", atLeast(s.kvHidden, 1)...);
    f("params", atLeast(s.params, 0)...);
}

template <class F, class... S>
void
fields(Of<model::GpuSpec>, F &&f, S &...s)
{
    f("name", s.name...);
    f("fp16_flops", above(s.fp16Flops, 0)...);
    f("mem_bandwidth", above(s.memBandwidth, 0)...);
    f("mem_bytes", above(s.memBytes, 0)...);
    f("pcie_bandwidth", above(s.pcieBandwidth, 0)...);
    f("pcie_setup_seconds", atLeast(s.pcieSetupSeconds, 0)...);
}

template <class F, class... S>
void
fields(Of<model::CostParams>, F &&f, S &...s)
{
    f("compute_util", above(s.computeUtil, 0)...);
    f("mem_util", above(s.memUtil, 0)...);
    f("prefill_fixed_ms", s.prefillFixedMs...);
    f("mbgmm_fixed_ms", s.mbgmmFixedMs...);
    f("lora_ineff", s.loraIneff...);
    f("decode_fixed_ms", s.decodeFixedMs...);
    f("decode_req_us", s.decodeReqUs...);
    f("mbgmv_fixed_ms", s.mbgmvFixedMs...);
    f("decode_rank_us", s.decodeRankUs...);
    f("tp_sync_ms", s.tpSyncMs...);
    f("tp_eff_loss_per_log2", s.tpEffLossPerLog2...);
}

template <class F, class... S>
void
fields(Of<serving::EngineConfig>, F &&f, S &...s)
{
    f("model", s.model...);
    f("gpu", s.gpu...);
    f("tp_degree", atLeast(s.tpDegree, 1)...);
    f("cost", s.cost...);
    f("workspace_per_gpu", atLeast(s.workspacePerGpu, 0)...);
    f("admission_token_budget", atLeast(s.admissionTokenBudget, 1)...);
    f("max_admissions_per_iter", atLeast(s.maxAdmissionsPerIter, 1)...);
    f("max_running", atLeast(s.maxRunning, 1)...);
    // Set by the Runner from `reservation` and `chunked_prefill`/
    // `chunk_tokens`; the scale-up catalogue dedupes on them.
    f(nullptr, Derived{s.predictedReservation}...);
    f(nullptr, Derived{s.prefillChunkTokens}...);
}

template <class F, class... S>
void
fields(Of<SchedulerSpec>, F &&f, S &...s)
{
    f("policy", Named{s.policy, schedulerPolicyTable()}...);
    f("slo_seconds", s.sloSeconds...);
    f("refresh_period_s", Seconds{s.refreshPeriod}...);
    f("bypass", s.bypass...);
    f("dynamic_queues", s.dynamicQueues...);
    f("wrs_form", Named{s.wrsForm, wrsFormTable()}...);
}

template <class F, class... S>
void
fields(Of<AdapterSpec>, F &&f, S &...s)
{
    f("policy", Named{s.policy, adapterPolicyTable()}...);
    f("eviction", Named{s.eviction, evictionPolicyTable()}...);
    f("predictive_prefetch", s.predictivePrefetch...);
    f("prefetch_top_k", s.prefetchTopK...);
}

template <class F, class... S>
void
fields(Of<PredictorSpec>, F &&f, S &...s)
{
    f("kind", s.kind...);
    f("accuracy", within(s.accuracy, 0, 1)...);
    f("seed", Seed{s.seed}...);
}

template <class F, class... S>
void
fields(Of<routing::RouterConfig>, F &&f, S &...s)
{
    f("seed", Seed{s.seed}...);
    f("slo_admission", s.sloAdmission...);
}

template <class F, class... S>
void
fields(Of<routing::AutoscalerConfig>, F &&f, S &...s)
{
    f("min_replicas", atLeast(s.minReplicas, 1)...);
    f("max_replicas", s.maxReplicas...);
    // 0 turns the forecast off; so would a negative rate, silently.
    f("replica_service_rps", atLeast(s.replicaServiceRps, 0)...);
    // Every count below 1 would drain after one low evaluation, as 1
    // does.
    f("down_cooldown_periods", atLeast(s.downCooldownPeriods, 1)...);
    f("boot_ms", atLeast(s.bootMs, 0)...);
    f("scale_up_policy",
      Named{s.scaleUpPolicy, routing::scaleUpPolicyTable()}...);
    f("measured_rate_alpha", within(s.measuredRateAlpha, 0, 1)...);
    f("boot_aware_horizon", s.bootAwareHorizon...);
}

template <class F, class... S>
void
fields(Of<ClusterSpec>, F &&f, S &...s)
{
    f("replicas",
      Replicas{atLeast(s.replicas, 1), s.replicaEngines}...);
    f("router", Named{s.router, routing::routerPolicyTable()}...);
    f("router_config", s.routerConfig...);
    f("autoscale", s.autoscale...);
    f("autoscaler", s.autoscaler...);
}

template <class F, class... S>
void
fields(Of<TenancySpec>, F &&f, S &...s)
{
    f("tenants", atLeast(s.tenants, 1)...);
    f("weights", above(s.weights, 0)...);
    f("slo_multipliers", above(s.sloMultipliers, 0)...);
}

template <class F, class... S>
void
fields(Of<fabric::FabricConfig>, F &&f, S &...s)
{
    f("migration", Named{s.migration, fabric::migrationPolicyTable()}...);
    f("topology", Named{s.topology, fabric::topologyTable()}...);
    f("top_k", atLeast(s.topK, 1)...);
}

template <class F, class... S>
void
fields(Of<workload::TraceGenConfig>, F &&f, S &...s)
{
    // Read first, so the keys below apply on top of the preset.
    f("preset", TracePreset{s}...);
    f("rps", above(s.rps, 0)...);
    f("duration_s", above(s.durationSeconds, 0)...);
    f("adapters", atLeast(s.numAdapters, 0)...);
    f("adapter_popularity",
      Named{s.adapterPopularity, workload::popularityTable()}...);
    // The generator's base rate is rps * p / (p + d * (m - 1)): a
    // negative burst length drives it through infinity to below zero.
    // A multiplier of 1 turns bursts off; below 1 or at a period <= 0
    // they would be off silently.
    f("burst_multiplier", atLeast(s.burstMultiplier, 1)...);
    f("burst_period_s", above(s.burstPeriodSeconds, 0)...);
    f("burst_duration_s", atLeast(s.burstDurationSeconds, 0)...);
    f("tenant_storm", atLeast(s.stormMultiplier, 1)...);
    // Set by the preset, the sweep's seed and the cell's tenancy.tenants.
    f(nullptr, Derived{s.input}...);
    f(nullptr, Derived{s.output}...);
    f(nullptr, Derived{s.rankPopularity}...);
    f(nullptr, Derived{s.bursts}...);
    f(nullptr, Derived{s.seed}...);
    f(nullptr, Derived{s.numTenants}...);
}

template <class F, class... S>
void
fields(Of<SystemSpec>, F &&f, S &...s)
{
    f("name", s.name...);
    f("engine", s.engine...);
    f("scheduler", s.scheduler...);
    f("adapters", s.adapters...);
    f("predictor", s.predictor...);
    f("cluster", s.cluster...);
    f("tenancy", s.tenancy...);
    f("fabric", s.fabric...);
    f("reservation", Named{s.reservation, reservationPolicyTable()}...);
    f("chunked_prefill", s.chunkedPrefill...);
    f("chunk_tokens", s.chunkTokens...);
}

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SPEC_SCHEMA_H
