/**
 * @file
 * Declarative system descriptions: the SystemSpec policy axes.
 *
 * A serving system is a point in a small policy space — scheduler x
 * adapter management x eviction x prediction x a few knobs (prefetch,
 * bypass, reservation, chunking) x deployment (replicas, routing,
 * autoscaling). SystemSpec names each axis explicitly so any
 * combination can be described, validated, and run through the Runner,
 * instead of being one variant of a closed enum. The paper's five
 * evaluated systems and two WRS ablations are preset specs
 * (presets::chameleon() etc.), registered by name in the
 * SystemRegistry (system_registry.h); every other variant is a
 * preset plus modifiers ("chameleon+lru").
 */

#ifndef CHAMELEON_CHAMELEON_SYSTEM_SPEC_H
#define CHAMELEON_CHAMELEON_SYSTEM_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "chameleon/wrs.h"
#include "fabric/cache_fabric.h"
#include "routing/autoscaler.h"
#include "routing/router.h"
#include "serving/engine.h"
#include "simkit/name_table.h"
#include "simkit/time.h"

namespace chameleon::core {

/** Admission-order policy of each engine's local scheduler. */
enum class SchedulerPolicy {
    Fifo, ///< Arrival order (S-LoRA's scheduler).
    Sjf,  ///< Predicted-shortest-first (uServe [46]).
    Mlq,  ///< Chameleon multi-level queues with quotas (§4.3).
    Wfq,  ///< Weighted fair queueing across tenants (tenancy layer).
    Drr,  ///< Deficit round robin across tenants (tenancy layer).
};

/** How adapters are moved to / kept in GPU memory. */
enum class AdapterPolicy {
    OnDemand,       ///< Fetch on demand, discard on idle, no prefetch.
    SLora,          ///< On-demand + async prefetch for queued requests.
    ChameleonCache, ///< Transparent idle-memory adapter cache (§4.2).
};

/** Eviction score of the Chameleon cache (§4.2.2, Fig. 17). */
enum class EvictionKind {
    Paper,     ///< The tuned compound score (the paper's policy).
    Lru,       ///< Least-recently-used.
    FairShare, ///< Equal-weight (rank-normalised) score.
    Gdsf,      ///< Greedy-Dual-Size-Frequency web-caching score.
};

/** KV reservation accounting at admission time. */
enum class ReservationPolicy {
    Auto,      ///< Predicted iff the scheduler is Mlq (paper wiring).
    MaxTokens, ///< Conservative input + kMaxNewTokens (S-LoRA style).
    Predicted, ///< Input + predicted output (Chameleon admission).
};

/** Each axis enum's names: the name and the parser (false on an
 * unknown name) of each read its table. */
const sim::NameTable<SchedulerPolicy> &schedulerPolicyTable();
const sim::NameTable<AdapterPolicy> &adapterPolicyTable();
const sim::NameTable<EvictionKind> &evictionPolicyTable();
const sim::NameTable<ReservationPolicy> &reservationPolicyTable();

inline const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    return schedulerPolicyTable().name(policy);
}
inline const char *
adapterPolicyName(AdapterPolicy policy)
{
    return adapterPolicyTable().name(policy);
}
inline const char *
evictionPolicyName(EvictionKind policy)
{
    return evictionPolicyTable().name(policy);
}
inline bool
evictionPolicyByName(const std::string &name, EvictionKind *out)
{
    return evictionPolicyTable().byName(name, out);
}

/** Output-length predictor axis. */
struct PredictorSpec
{
    /** "bert" (accuracy-knob proxy) or "history" (online EWMA). */
    std::string kind = "bert";
    /** Accuracy of the bert proxy (paper's predictor: ~0.8). */
    double accuracy = 0.8;
    std::uint64_t seed = 0xC0FFEE;
};

/** Scheduler axis: policy plus the knobs presets vary. */
struct SchedulerSpec
{
    SchedulerPolicy policy = SchedulerPolicy::Mlq;
    // --- MLQ knobs (§4.3); ignored by Fifo/Sjf ---
    /** Per-queue SLO used in quota assignment, seconds. */
    double sloSeconds = 5.0;
    /** Queue/quota reconfiguration period (§4.3.4). */
    sim::SimTime refreshPeriod = 300 * sim::kSec;
    /** Opportunistic bypass (§4.3.3). */
    bool bypass = true;
    /** Dynamic queue count/cutoffs/quotas; false = Fig. 22 static. */
    bool dynamicQueues = true;
    /** WRS formula (§4.3.1). */
    WrsForm wrsForm = WrsForm::Degree2;
};

/** Adapter-management axis. */
struct AdapterSpec
{
    AdapterPolicy policy = AdapterPolicy::ChameleonCache;
    /** Cache eviction score; requires ChameleonCache. */
    EvictionKind eviction = EvictionKind::Paper;
    /** Histogram-based predictive prefetch (§4.2.3). */
    bool predictivePrefetch = false;
    /** Prefetch width (adapters per cycle); 0 = unset. */
    std::size_t prefetchTopK = 0;
};

/**
 * Tenancy axis: who shares the system and on what terms. With the
 * default (1 tenant, no overrides) the axis is inert: every request
 * carries the anonymous tenant 0 and all schedulers behave exactly as
 * before the tenancy layer existed. The WFQ/DRR scheduler policies and
 * the per-tenant report/metrics groups read their weights and SLO
 * scales from here.
 */
struct TenancySpec
{
    /** Declared tenant count (trace generation + reporting hint). */
    int tenants = 1;
    /** Per-tenant scheduler weights; empty = all 1.0. */
    std::vector<double> weights;
    /** Per-tenant scale on the global TTFT SLO; empty = all 1.0. */
    std::vector<double> sloMultipliers;

    /** Weight for `tenant`, defaulting to 1.0 beyond the table. */
    double weightFor(int tenant) const;
    /** SLO scale for `tenant`, defaulting to 1.0 beyond the table. */
    double sloMultiplierFor(int tenant) const;
};

/** Deployment axis: data-parallel replicas behind a global router. */
struct ClusterSpec
{
    /** Data-parallel replicas (1 = single engine). */
    int replicas = 1;
    /**
     * Per-replica engine overrides for heterogeneous fleets, in
     * replica order. Empty (the default) stamps every replica from
     * SystemSpec::engine; non-empty must have exactly `replicas`
     * entries (validate() enforces it) and replica i is built from
     * entry i. Autoscale scale-ups beyond the list fall back to
     * SystemSpec::engine. Populate by hand, via
     * SystemSpec::withFleet(), or from spec JSON ("cluster.replicas"
     * as an array of engine overrides, or the "cluster.fleet"
     * shorthand — see src/chameleon/README.md).
     */
    std::vector<serving::EngineConfig> replicaEngines;
    routing::RouterPolicy router =
        routing::RouterPolicy::JoinShortestQueue;
    routing::RouterConfig routerConfig{};
    /** Scale the active replica set at simulation time. */
    bool autoscale = false;
    routing::AutoscalerConfig autoscaler{};
};

/**
 * A complete, declarative description of one serving system. Every
 * axis is independent: any eviction policy under any scheduler, any
 * combination cluster-deployed. Build one from scratch, from a preset
 * (presets::chameleon()), or by name through the SystemRegistry
 * ("chameleon+gdsf+prefetch").
 */
struct SystemSpec
{
    /** Display/registry name; composed lookups carry their grammar. */
    std::string name = "custom";

    /** Hardware + base model (the engine axis is shared wiring).
     * Its predictedReservation and prefillChunkTokens are not read:
     * `reservation` and `chunkedPrefill`/`chunkTokens` set them. */
    serving::EngineConfig engine{};

    SchedulerSpec scheduler{};
    AdapterSpec adapters{};
    PredictorSpec predictor{};
    ClusterSpec cluster{};
    TenancySpec tenancy{};
    /** Cache-fabric axis: cluster-wide residency directory + peer-to-peer
     * adapter migration (src/fabric/). */
    fabric::FabricConfig fabric{};

    ReservationPolicy reservation = ReservationPolicy::Auto;

    /** Chunked prefill (Sarathi [1]); tokens per chunk when enabled. */
    bool chunkedPrefill = false;
    std::int64_t chunkTokens = 64;

    // --- fluent helpers for composing variants ---
    SystemSpec &named(std::string n);
    SystemSpec &withScheduler(SchedulerPolicy p);
    SystemSpec &withEviction(EvictionKind e);
    SystemSpec &withPrefetch(std::size_t topK = 8);
    /**
     * Deploy a heterogeneous fleet: one replica per GPU in `gpus`,
     * each built from the current `engine` with that GPU swapped in
     * (set engine.model and shared knobs first). Sets
     * cluster.replicas and cluster.replicaEngines; pairs with
     * model::tryFleetByName for "a100x2+a40x2"-style presets.
     */
    SystemSpec &withFleet(const std::vector<model::GpuSpec> &gpus,
                          routing::RouterPolicy router =
                              routing::RouterPolicy::JoinShortestQueue);

    /**
     * The engine configuration replica `replica` is built from:
     * cluster.replicaEngines[replica] when the fleet is heterogeneous
     * (falling back to `engine` for autoscaled replicas beyond the
     * list), `engine` otherwise.
     */
    const serving::EngineConfig &resolvedEngine(std::size_t replica) const;

    /**
     * Does the run need a cache fabric? True when migration is on or
     * the router needs the residency directory (affinity-dir).
     */
    bool fabricEnabled() const
    {
        return fabric.enabled() ||
               cluster.router ==
                   routing::RouterPolicy::AdapterAffinityDirectory;
    }

    /**
     * Check the spec for contradictions. Returns one actionable message
     * per problem (empty = valid). Runner construction runs this and
     * fails fast with the joined messages.
     */
    std::vector<std::string> validate() const;
};

/**
 * Field-wise equality over every axis and knob (name included), each
 * walking its field list in spec_schema.h, so JSON round-trip tests can
 * assert spec equivalence directly instead of comparing re-printed
 * strings.
 */
bool operator==(const PredictorSpec &a, const PredictorSpec &b);
bool operator==(const SchedulerSpec &a, const SchedulerSpec &b);
bool operator==(const AdapterSpec &a, const AdapterSpec &b);
bool operator==(const ClusterSpec &a, const ClusterSpec &b);
bool operator==(const TenancySpec &a, const TenancySpec &b);
bool operator==(const SystemSpec &a, const SystemSpec &b);
inline bool operator!=(const SystemSpec &a, const SystemSpec &b)
{
    return !(a == b);
}

/**
 * The paper's evaluated systems (§5.1) and the two WRS-form ablations
 * no registry modifier spells, as preset specs. Each returns a fresh
 * SystemSpec with engine/predictor left at defaults — callers set
 * hardware (spec.engine.model/gpu) before running. The registry
 * exposes them by name.
 */
namespace presets {

SystemSpec slora();              ///< FIFO + fetch/prefetch/discard [49].
SystemSpec sloraSjf();           ///< S-LoRA with the uServe SJF [46].
SystemSpec chameleonNoCache();   ///< Chameleon scheduler, S-LoRA adapters.
SystemSpec chameleonNoSched();   ///< Chameleon cache, FIFO scheduling.
SystemSpec chameleon();          ///< Full system (§4).
SystemSpec chameleonOutputOnly();///< WRS = predicted output (Fig. 19).
SystemSpec chameleonDegree1();   ///< Degree-1 WRS (§4.3.1 ablation).

} // namespace presets

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SYSTEM_SPEC_H
