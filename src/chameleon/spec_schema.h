/**
 * @file
 * The spec schema: one field list per spec struct.
 *
 * fields(Of<T>{}, f, s...) names every member of T once, in dump
 * order, as f("json_key", s.member...). The list is the only place a
 * JSON key maps to a member: spec_json.cc prints and strictly reads a
 * SystemSpec by walking the lists, and every spec struct's operator==
 * compares field by field over its list (spec_schema.cc). The pack
 * `s...` is one object (print, read) or two in step (equality), so
 * adding a knob is its struct field, one line here and its README
 * table row.
 *
 * The C++ type of a member decides its JSON encoding (bool, int,
 * int64, size_t as a non-negative count, double, string, number
 * array, nested object). Where it does not, a tagged wrapper does:
 *  - Seconds: a SimTime (µs) written and read as seconds;
 *  - Seed: a uint64 over its full range (size_t is the same type, but
 *    a plain one is a count capped at int64);
 *  - Named: an enum, by its name, parsed by name, listing the known
 *    names on a miss;
 *  - Derived: compared, but neither printed nor read (the Runner sets
 *    it from other keys);
 *  - Replicas: "cluster.replicas", an integer count or an array of
 *    per-replica engines (with the parse-only "cluster.fleet").
 */

#ifndef CHAMELEON_CHAMELEON_SPEC_SCHEMA_H
#define CHAMELEON_CHAMELEON_SPEC_SCHEMA_H

#include <string>
#include <type_traits>

#include "chameleon/system_spec.h"

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

/** An enum encoded by name. */
template <class E>
struct Named
{
    using Enum = std::remove_const_t<E>;
    E &v;
    const char *(*name)(Enum);
    bool (*byName)(const std::string &, Enum *);
    const char *known;
    friend bool operator==(Named a, Named b) { return a.v == b.v; }
};
template <class E>
Named(E &, const char *(*)(std::remove_const_t<E>),
      bool (*)(const std::string &, std::remove_const_t<E> *),
      const char *) -> Named<E>;

/** The deployment: replica count plus optional per-replica engines. */
template <class C>
struct Replicas
{
    C &cluster;
    friend bool operator==(Replicas a, Replicas b)
    {
        return a.cluster.replicas == b.cluster.replicas &&
               a.cluster.replicaEngines == b.cluster.replicaEngines;
    }
};
template <class C>
Replicas(C &) -> Replicas<C>;

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
    f("layers", s.layers...);
    f("hidden", s.hidden...);
    f("kv_hidden", s.kvHidden...);
    f("params", s.params...);
}

template <class F, class... S>
void
fields(Of<model::GpuSpec>, F &&f, S &...s)
{
    f("name", s.name...);
    f("fp16_flops", s.fp16Flops...);
    f("mem_bandwidth", s.memBandwidth...);
    f("mem_bytes", s.memBytes...);
    f("pcie_bandwidth", s.pcieBandwidth...);
    f("pcie_setup_seconds", s.pcieSetupSeconds...);
}

template <class F, class... S>
void
fields(Of<model::CostParams>, F &&f, S &...s)
{
    f("compute_util", s.computeUtil...);
    f("mem_util", s.memUtil...);
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
    f("tp_degree", s.tpDegree...);
    f("cost", s.cost...);
    f("workspace_per_gpu", s.workspacePerGpu...);
    f("admission_token_budget", s.admissionTokenBudget...);
    f("max_new_tokens", s.maxNewTokens...);
    f("max_admissions_per_iter", s.maxAdmissionsPerIter...);
    f("max_running", s.maxRunning...);
    f("kv_page_tokens", s.kvPageTokens...);
    f("mem_sample_period_s", Seconds{s.memSamplePeriod}...);
    // Set by the Runner from `reservation` and `chunked_prefill`/
    // `chunk_tokens`; the scale-up catalogue dedupes on them.
    f(nullptr, Derived{s.predictedReservation}...);
    f(nullptr, Derived{s.prefillChunkTokens}...);
}

template <class F, class... S>
void
fields(Of<SchedulerSpec>, F &&f, S &...s)
{
    f("policy", Named{s.policy, schedulerPolicyName,
                      schedulerPolicyByName,
                      "fifo, sjf, mlq, wfq, drr"}...);
    f("slo_seconds", s.sloSeconds...);
    f("refresh_period_s", Seconds{s.refreshPeriod}...);
    f("bypass", s.bypass...);
    f("dynamic_queues", s.dynamicQueues...);
    f("wrs_form", Named{s.wrsForm, wrsFormName, wrsFormByName,
                        "degree2, degree1, output-only"}...);
}

template <class F, class... S>
void
fields(Of<AdapterSpec>, F &&f, S &...s)
{
    f("policy", Named{s.policy, adapterPolicyName, adapterPolicyByName,
                      "on-demand, slora, chameleon-cache"}...);
    f("eviction", Named{s.eviction, evictionPolicyName,
                        evictionPolicyByName,
                        "chameleon, lru, fairshare, gdsf"}...);
    f("predictive_prefetch", s.predictivePrefetch...);
    f("prefetch_top_k", s.prefetchTopK...);
}

template <class F, class... S>
void
fields(Of<PredictorSpec>, F &&f, S &...s)
{
    f("kind", s.kind...);
    f("accuracy", s.accuracy...);
    f("seed", Seed{s.seed}...);
}

template <class F, class... S>
void
fields(Of<routing::RouterConfig>, F &&f, S &...s)
{
    f("seed", Seed{s.seed}...);
    f("virtual_nodes", s.virtualNodes...);
    f("spill_load_factor", s.spillLoadFactor...);
    f("spill_margin", s.spillMargin...);
    f("slo_admission", s.sloAdmission...);
}

template <class F, class... S>
void
fields(Of<routing::AutoscalerConfig>, F &&f, S &...s)
{
    f("min_replicas", s.minReplicas...);
    f("max_replicas", s.maxReplicas...);
    f("eval_period_s", s.evalPeriodSeconds...);
    f("high_watermark", s.highWatermark...);
    f("low_watermark", s.lowWatermark...);
    f("forecast_horizon_s", s.forecastHorizonSeconds...);
    f("forecast_window_s", s.forecastWindowSeconds...);
    f("replica_service_rps", s.replicaServiceRps...);
    f("up_cooldown_periods", s.upCooldownPeriods...);
    f("down_cooldown_periods", s.downCooldownPeriods...);
    f("boot_ms", s.bootMs...);
    f("scale_up_policy",
      Named{s.scaleUpPolicy, routing::scaleUpPolicyName,
            routing::scaleUpPolicyByName,
            routing::scaleUpPolicyNames()}...);
    f("measured_rate_alpha", s.measuredRateAlpha...);
    f("boot_aware_horizon", s.bootAwareHorizon...);
}

template <class F, class... S>
void
fields(Of<ClusterSpec>, F &&f, S &...s)
{
    f("replicas", Replicas{s}...);
    f("router", Named{s.router, routing::routerPolicyName,
                      routing::routerPolicyByName,
                      routing::routerPolicyNames()}...);
    f("router_config", s.routerConfig...);
    f("autoscale", s.autoscale...);
    f("autoscaler", s.autoscaler...);
}

template <class F, class... S>
void
fields(Of<TenancySpec>, F &&f, S &...s)
{
    f("tenants", s.tenants...);
    f("weights", s.weights...);
    f("slo_multipliers", s.sloMultipliers...);
    f("drr_quantum_tokens", s.drrQuantumTokens...);
}

template <class F, class... S>
void
fields(Of<FabricSpec>, F &&f, S &...s)
{
    f("migration", Named{s.migration, fabric::migrationPolicyName,
                         fabric::migrationPolicyByName,
                         fabric::migrationPolicyNames()}...);
    f("topology", Named{s.topology, fabric::topologyName,
                        fabric::topologyByName,
                        fabric::topologyNames()}...);
    f("top_k", s.topK...);
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
    f("reservation", Named{s.reservation, reservationPolicyName,
                           reservationPolicyByName,
                           "auto, max-tokens, predicted"}...);
    f("chunked_prefill", s.chunkedPrefill...);
    f("chunk_tokens", s.chunkTokens...);
}

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SPEC_SCHEMA_H
