/**
 * @file
 * Multi-engine data-parallel serving (§4.4).
 *
 * Under data parallelism Chameleon uses a two-level scheduler: a global
 * dispatcher routes each arriving request to one engine, and each engine
 * runs its local (FIFO/SJF/Chameleon) scheduler. Dispatch is delegated
 * to a pluggable routing::Router (round-robin, JSQ, power-of-two
 * choices, adapter affinity); the cluster exposes itself to the router
 * as a routing::ClusterView. Adapter caches are per engine — with
 * affinity routing they behave as one partitioned cache instead of N
 * replicated ones. Tensor parallelism, by contrast, is modeled inside a
 * single engine via EngineConfig::tpDegree.
 *
 * Replicas need not be identical: the engine factory takes the replica
 * index, so a heterogeneous fleet (mixed A40/A100 GPUs, different
 * batching knobs) builds each engine from its own configuration. The
 * cluster computes a nominal service rate per replica
 * (serving::nominalServiceRate) and reports the max-normalised ratios
 * through ClusterView::serviceWeight, which the capacity-aware routing
 * policies use to place work where the hardware can absorb it. With
 * measured rates enabled (enableMeasuredRates), each replica's weight
 * instead tracks an online EWMA of its observed completion rate
 * (serving::MeasuredRate), so the weights self-correct under
 * load-dependent batching and cache effects.
 *
 * An optional routing::Autoscaler grows and drains the active replica
 * set at simulation time. Each replica is in one of three states:
 *
 *   Active  — dispatchable; routers see exactly these replicas.
 *   Booting — provisioned by a scale-up but still loading weights
 *             (serving::ColdStartModel); counts toward the
 *             autoscaler's capacity, receives no dispatches until its
 *             boot deadline passes.
 *   Drained — scaled down; finishes its outstanding work and keeps
 *             its warm adapter cache for a later reactivation.
 *
 * New replicas are built on demand from the engine factory — or, on a
 * heterogeneous fleet with a scale-up catalogue installed
 * (setScaleUpCandidates), from the candidate engine configuration the
 * routing::ScaleUpPolicy picks. With the cold-start model disabled
 * (bootMs = 0) every scale-up activates synchronously, reproducing
 * the pre-cold-start event streams bit-for-bit.
 */

#ifndef CHAMELEON_SERVING_CLUSTER_H
#define CHAMELEON_SERVING_CLUSTER_H

#include <functional>
#include <memory>
#include <vector>

#include "routing/autoscaler.h"
#include "routing/router.h"
#include "serving/cold_start.h"
#include "serving/engine.h"
#include "serving/measured_rate.h"

namespace chameleon::fabric {
class CacheFabric;
}

namespace chameleon::serving {

/** A set of data-parallel engines behind a global dispatcher. */
class DataParallelCluster : public routing::ClusterView
{
  public:
    /**
     * Builds the engine of replica `index`. Heterogeneous fleets
     * resolve a per-replica configuration from the index (the Runner
     * passes SystemSpec::resolvedEngine(index)); homogeneous factories
     * simply ignore it.
     */
    using EngineFactory =
        std::function<std::unique_ptr<ServingEngine>(std::size_t index)>;

    /** Builds one engine from an explicit configuration (scale-up
     * catalogue; see setScaleUpCandidates). */
    using ConfigEngineFactory = std::function<std::unique_ptr<ServingEngine>(
        const EngineConfig &config)>;

    /** Lifecycle state of one replica slot. */
    enum class ReplicaState { Active, Booting, Drained };

    /** Cold-start accounting (all zero while bootMs = 0). */
    struct BootStats
    {
        /** Scale-up builds that went through a Booting phase. */
        std::int64_t boots = 0;
        /** Summed boot latency across those builds. */
        sim::SimTime totalBootTime = 0;
        /** Requests dispatched while >= 1 replica was still booting —
         * the arrivals the cluster served at reduced capacity because
         * the forecast horizon lost the race against the boot. */
        std::int64_t requestsDelayedByBoot = 0;
    };

    /**
     * @param simulator shared event kernel
     * @param engineFactory builds one fully-wired engine per replica
     *        index (kept for autoscaling scale-ups)
     * @param replicas initial engine count
     * @param router global dispatch policy (cluster takes ownership)
     */
    DataParallelCluster(sim::Simulator &simulator,
                        EngineFactory engineFactory, int replicas,
                        std::unique_ptr<routing::Router> router);

    /** Convenience: build the router from a policy name. */
    DataParallelCluster(sim::Simulator &simulator,
                        EngineFactory engineFactory, int replicas,
                        routing::RouterPolicy policy,
                        const routing::RouterConfig &config = {});

    /**
     * Enable predictor-driven autoscaling. Must be called before
     * submitTrace; evaluation events are scheduled over the trace span.
     * The initial replica count is clamped into the autoscaler bounds.
     *
     * @param referenceServiceRps nominal service rate of the
     *        *reference* replica (the spec's base engine) that
     *        config.replicaServiceRps describes; per-replica capacity
     *        factors are nominal rates over this. 0 uses replica 0's
     *        nominal rate — exact for homogeneous clusters.
     */
    void enableAutoscaler(const routing::AutoscalerConfig &config,
                          double referenceServiceRps = 0.0);

    /**
     * Install the scale-up catalogue a non-default
     * routing::ScaleUpPolicy chooses from: candidate engine
     * configurations (typically the distinct fleet configs plus the
     * base engine) and a factory that builds one. Without a catalogue
     * every policy degrades to Default (the index factory).
     */
    void setScaleUpCandidates(std::vector<EngineConfig> candidates,
                              ConfigEngineFactory factory);

    /**
     * Declare the configuration a Default-policy scale-up past the
     * fleet list builds (the spec's base engine), so the boot-aware
     * forecast horizon can price the next replica's cold start without
     * building it. Unset, the cluster falls back to replica 0's
     * configuration — exact for homogeneous fleets.
     */
    void setReferenceEngine(const EngineConfig &config);

    /**
     * Track per-replica measured completion rates with EWMA weight
     * `alpha` and blend them into serviceWeight. Call before
     * submitTrace; alpha = 0 is a no-op (nominal weights, unchanged
     * event streams).
     */
    void enableMeasuredRates(double alpha);

    /**
     * Manually resize the provisioned replica set (the autoscaler's
     * own entry point, public for tools and lifecycle tests). Grows by
     * reactivating drained replicas, then building new ones — which
     * boot first when the cold-start model is enabled; shrinks by
     * draining from the top.
     */
    void resize(std::size_t target);

    /**
     * Attach the span recorder to the whole cluster: names the trace
     * processes (pid 0 = control plane, pid i+1 = replica i), wires
     * every existing engine (and, through it, its adapter manager),
     * the router, and the autoscaler; engines built later by scale-ups
     * are wired at creation. Call before submitTrace. Null detaches
     * everything.
     */
    void setTraceRecorder(obs::TraceRecorder *recorder);

    /**
     * Attach the cluster-wide cache fabric (residency directory +
     * peer-to-peer migration). Registers every existing engine's
     * adapter manager with the fabric directory; engines built later
     * by scale-ups register at creation, and lifecycle transitions
     * (scale-up boot, drain, routable-set remap) trigger the fabric's
     * migration hooks. Call before submitTrace. The fabric outlives
     * the cluster's use of it (the Runner owns both).
     */
    void attachFabric(fabric::CacheFabric *fabric);

    /**
     * Route every request of the trace at its arrival time, from one
     * kernel arrival stream (sim::Simulator::scheduleStream). The trace
     * is read during the run, so it must outlive it. A fixed cluster
     * takes further traces, each its own stream; an autoscaled one
     * takes one.
     */
    void submitTrace(const workload::Trace &trace);

    // --- routing::ClusterView (the dispatchable replica set) ---
    std::size_t replicaCount() const override { return routable_.size(); }
    std::int64_t outstanding(std::size_t i) const override;
    bool adapterResident(std::size_t i,
                         model::AdapterId id) const override;
    /** Directory-backed when a cache fabric is attached (O(holders)
     * per lookup); falls back to the base-class residency scan
     * otherwise. Both return the same view indices. */
    void residentReplicas(model::AdapterId id,
                          std::vector<std::size_t> *out) const override;
    /** Service rate of dispatchable replica i over the fleet's maximum
     * nominal rate — measured when enabled, nominal otherwise; exactly
     * 1.0 everywhere on a homogeneous unmeasured cluster. */
    double serviceWeight(std::size_t i) const override;
    /** Cached weight vector for the dispatch path: rebuilt (as exactly
     * serviceWeight(i) per entry) only after the routable set, the
     * fleet, or a measured rate changes — so capacity-aware routing
     * scans stop recomputing weights per decision. */
    const std::vector<double> &serviceWeights() const override;

    /**
     * Per-replica nominal service-rate estimates (requests/s, from
     * serving::nominalServiceRate on each engine's configuration),
     * indexed like engines(). The ratios drive capacity-aware routing;
     * RunReport exposes them as perReplicaServiceRate.
     */
    const std::vector<double> &serviceRates() const { return rates_; }

    /**
     * Current service-rate estimates actually steering the routing
     * weights, indexed like engines(): the measured EWMA when
     * enableMeasuredRates is active, the nominal estimate otherwise.
     */
    std::vector<double> effectiveServiceRates() const;

    /** All engines ever created, whatever their state (for stats). */
    const std::vector<std::unique_ptr<ServingEngine>> &engines() const
    {
        return engines_;
    }

    /** Lifecycle state of replica i (indexed like engines()). */
    ReplicaState replicaState(std::size_t i) const { return states_[i]; }

    /** Provisioned replicas: active + booting (the autoscaler's view
     * of capacity; a prefix of engines()). */
    std::size_t activeReplicas() const { return provisioned_; }

    /** Replicas currently loading weights (subset of provisioned). */
    std::size_t bootingReplicas() const { return booting_; }

    const routing::Router &router() const { return *router_; }
    routing::Autoscaler *autoscaler() { return autoscaler_.get(); }

    /** Cold-start accounting (zeros while the model is disabled). */
    const BootStats &bootStats() const { return bootStats_; }

    /** Autoscaling events so far (0 when autoscaling is disabled). */
    std::int64_t scaleUps() const
    {
        return autoscaler_ ? autoscaler_->scaleUps() : 0;
    }
    std::int64_t scaleDowns() const
    {
        return autoscaler_ ? autoscaler_->scaleDowns() : 0;
    }

    /** Merge per-engine request records into one vector. */
    std::vector<RequestRecord> mergedRecords() const;

    /**
     * Merge per-engine statistics: counters are summed and the latency
     * trackers are rebuilt from every engine's samples, so percentiles
     * are over the whole cluster, not averaged per replica. The
     * time-series fields (ttftOverTime, mem* series) are NOT merged —
     * they stay empty; per-replica timelines remain available through
     * engines()[i]->stats().
     */
    EngineStats mergedStats() const;

    /** Requests finished per replica, indexed like engines(). */
    std::vector<std::int64_t> perReplicaFinished() const;

    /** Total host->GPU adapter traffic across replicas. */
    std::int64_t totalPcieBytes();
    std::int64_t totalPcieTransfers();

    /** Finalise all engines. */
    void finalize();

  private:
    void dispatch(const workload::Request &request);
    void appendEngine(std::unique_ptr<ServingEngine> engine,
                      double nominalRate);
    void wireEngineTrace(std::size_t index);
    void buildReplica();
    void buildScaleUpReplica();
    void installMeasuredRate(std::size_t index);
    void onBootComplete(std::size_t index);
    /** Recompute the dispatchable set; notifies the router if the
     * mapping changed. */
    void syncRoutable();
    void applyTarget(std::size_t target);
    routing::CapacitySignals capacitySignals() const;
    double capacityFactor(std::size_t index) const;
    /** Do the capacity signals read the measured (effective) rates?
     * True exactly when measured rates are live (alpha > 0) on an
     * autoscaled cluster; otherwise the static factors stay
     * bit-identical. */
    bool measuredSignals() const;
    /** Default-policy scale-up configuration (see setReferenceEngine). */
    const EngineConfig &referenceEngineConfig() const;
    void autoscaleTick(sim::SimTime until);

    sim::Simulator &sim_;
    EngineFactory factory_;
    obs::TraceRecorder *trace_ = nullptr;
    fabric::CacheFabric *fabric_ = nullptr;
    /** residentReplicas scratch: engine indices from the directory. */
    mutable std::vector<std::size_t> fabricHolders_;
    std::unique_ptr<routing::Router> router_;
    std::unique_ptr<routing::Autoscaler> autoscaler_;
    ColdStartModel coldStart_{0.0};
    std::vector<std::unique_ptr<ServingEngine>> engines_;
    std::vector<ReplicaState> states_;  // aligned with engines_
    std::vector<sim::SimTime> bootDeadline_; // 0 = booted at birth
    std::vector<double> rates_; // nominal rates, aligned with engines_
    std::vector<MeasuredRate> measured_; // aligned when alpha > 0
    double measuredAlpha_ = 0.0;
    double maxRate_ = 0.0;      // max of rates_ (dispatch-path cache)
    double referenceRate_ = 0.0; // capacity-factor denominator
    /** Dispatchable view: view index -> engine index. */
    std::vector<std::size_t> routable_;
    /** serviceWeight(i) cache, aligned with routable_ (see
     * serviceWeights); dirty after resizes / rate updates. With
     * measured rates live the entries are also time-dependent (the
     * staleness floor decays a stalled replica's rate), so the cache
     * additionally keys on the rebuild timestamp. */
    mutable std::vector<double> weights_;
    mutable bool weightsDirty_ = true;
    mutable sim::SimTime weightsTime_ = 0;
    /** Default-policy scale-up config for boot pricing (unset: falls
     * back to replica 0's configuration). */
    std::unique_ptr<EngineConfig> referenceEngine_;
    std::size_t provisioned_ = 0; // active + booting prefix length
    std::size_t booting_ = 0;
    BootStats bootStats_;
    // Scale-up catalogue (non-default ScaleUpPolicy).
    std::vector<EngineConfig> candidates_;
    std::vector<double> candidateRates_;
    std::size_t fastestCandidate_ = 0; // argmax of candidateRates_
    ConfigEngineFactory configFactory_;
    bool traceSubmitted_ = false;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_CLUSTER_H
