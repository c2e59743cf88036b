/**
 * @file
 * Predictor-driven replica autoscaling.
 *
 * Pure decision logic for scaling a data-parallel cluster at simulation
 * time: the owning dispatcher reports arrivals and periodically asks for
 * the target active-replica count. Two signals are combined:
 *
 *  - queue-depth watermarks — the mean outstanding requests per active
 *    replica crossing the high (low) watermark votes to scale up
 *    (down); this reacts to load that has already queued;
 *  - a predict::LoadForecaster arrival-rate forecast — the predicted
 *    rate over the horizon, divided by the per-replica service
 *    capacity, gives a demand in replicas; this reacts to a building
 *    burst *before* the queues form (the same idea as §4.2.3's
 *    predictive prefetch, applied to capacity instead of adapters).
 *
 * Scale-up follows max(demand, +1 step) at any evaluation, the one
 * right after a scale-up included; scale-down requires the low signal
 * to persist for `downCooldownPeriods` consecutive evaluations, then
 * drains one replica at a time so a lull does not collapse the
 * cluster.
 *
 * Heterogeneous fleets: `replicaServiceRps` rates the *reference*
 * replica (the spec's base engine); every replica contributes to
 * capacity in proportion to its nominal service rate over the
 * reference's (its capacity factor — see CapacitySignals). Demand is
 * computed in reference-replica units and compared against the active
 * set's *aggregate* capacity factor, so two half-speed replicas absorb
 * the same forecast as one reference replica. On a homogeneous fleet
 * every factor is exactly 1.0 and the arithmetic reduces bit-for-bit
 * to the scalar form used before capacity factors existed.
 */

#ifndef CHAMELEON_ROUTING_AUTOSCALER_H
#define CHAMELEON_ROUTING_AUTOSCALER_H

#include <cstdint>
#include <string>

#include "predict/load_predictor.h"
#include "simkit/name_table.h"
#include "simkit/time.h"

namespace chameleon::obs {
class TraceRecorder;
}

namespace chameleon::routing {

/**
 * Which engine configuration a scale-up instantiates when the cluster
 * has a catalogue of candidate configs (a heterogeneous fleet).
 */
enum class ScaleUpPolicy {
    /** The engine factory's default for the next replica index (the
     * pre-catalogue behaviour; homogeneous fleets always use this). */
    Default,
    /** Highest-capacity candidate, unconditionally. */
    Fastest,
};

/** The policies' short names: the name, the parser (false on an
 * unknown name) and the list for error messages read it. */
const sim::NameTable<ScaleUpPolicy> &scaleUpPolicyTable();
inline const char *
scaleUpPolicyName(ScaleUpPolicy policy)
{
    return scaleUpPolicyTable().name(policy);
}
inline bool
scaleUpPolicyByName(const std::string &name, ScaleUpPolicy *out)
{
    return scaleUpPolicyTable().byName(name, out);
}
inline const char *
scaleUpPolicyNames()
{
    return scaleUpPolicyTable().names();
}

/** The cluster asks the autoscaler for a target every 5 s. */
inline constexpr sim::SimTime kAutoscaleEvalPeriod = 5 * sim::kSec;
/** Scale up when the mean outstanding requests per replica exceed
 * this. */
inline constexpr double kHighWatermark = 24.0;
/** Eligible to scale down while it stays below this. */
inline constexpr double kLowWatermark = 4.0;
/** How far ahead the arrival-rate forecast looks, seconds. The
 * forecaster's own window is predict::LoadForecaster's default, 60 s. */
inline constexpr double kForecastHorizonSeconds = 15.0;

/** Bounds, demand and scale-down cadence of the autoscaler. */
struct AutoscalerConfig
{
    std::size_t minReplicas = 1;
    std::size_t maxReplicas = 8;
    /**
     * Sustainable request rate of one *reference* replica (the base
     * engine), requests/s; converts the forecasted arrival rate into a
     * demand in reference-replica units. 0 disables the forecast
     * signal and leaves only the watermarks.
     */
    double replicaServiceRps = 0.0;
    /** Consecutive low evaluations required before draining one. */
    int downCooldownPeriods = 3;
    /**
     * Cold-start boot constant, milliseconds: process start + runtime
     * init paid by every *newly built* replica on top of its weight
     * load (serving::ColdStartModel). 0 disables the cold-start model
     * entirely — scale-ups activate instantly, the pre-cold-start
     * behaviour pinned by tests/golden_trace_test.cc.
     */
    double bootMs = 0.0;
    /** Which candidate engine config a scale-up instantiates. */
    ScaleUpPolicy scaleUpPolicy = ScaleUpPolicy::Default;
    /**
     * EWMA weight of each newly observed per-replica completion rate
     * (serving::MeasuredRate). Above 0 the measured rates feed both
     * the routing weights (ClusterView::serviceWeight) and the
     * capacity factors the cluster reports (CapacitySignals), so
     * routing and capacity track achieved throughput. 0 disables
     * measurement — weights and capacity stay the static nominal
     * estimates, bit-identically.
     */
    double measuredRateAlpha = 0.0;
    /**
     * Stretch the forecast horizon to at least the boot time of the
     * replica the scale-up policy would actually add
     * (CapacitySignals::nextReplicaBootSeconds), so a scale-up is
     * triggered early enough for the new replica to finish booting
     * before the forecasted load lands — closing the fig28 race. Off
     * (the default) keeps the static kForecastHorizonSeconds.
     */
    bool bootAwareHorizon = false;
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const AutoscalerConfig &a, const AutoscalerConfig &b);

/**
 * Capacity of the active set in reference-replica units, supplied by
 * the cluster each evaluation. A replica's capacity factor is its
 * nominal service rate divided by the reference (base-engine) rate;
 * homogeneous fleets pass exactly 1.0 per replica.
 */
struct CapacitySignals
{
    /** Sum of the active (and still-booting) replicas' factors. */
    double activeCapacityFactor = 0.0;
    /** Factor of the replica the next scale-up step would add. */
    double nextReplicaFactor = 1.0;
    /**
     * Boot latency of that same next replica, seconds: the remaining
     * boot of a drained-mid-boot reactivation, or ColdStartModel
     * weight-load + boot_ms for a fresh build. 0 while the cold-start
     * model is disabled. Only read when
     * AutoscalerConfig::bootAwareHorizon is on.
     */
    double nextReplicaBootSeconds = 0.0;
};

/** Decides the target active-replica count; owns the forecaster. */
class Autoscaler
{
  public:
    explicit Autoscaler(AutoscalerConfig config);

    /** Report one request arrival (feeds the forecaster). */
    void onArrival(sim::SimTime now);

    /**
     * One evaluation: given the current active count, the total
     * outstanding requests across active replicas and the active
     * set's capacity (see CapacitySignals), return the new target
     * count in [minReplicas, maxReplicas].
     */
    std::size_t evaluate(std::size_t activeReplicas,
                         std::int64_t totalOutstanding, sim::SimTime now,
                         const CapacitySignals &capacity);

    /**
     * Forecast demand of the last evaluation, in reference-replica
     * units (0 while the forecast signal is disabled).
     */
    double lastForecastDemand() const { return lastDemand_; }

    const AutoscalerConfig &config() const { return config_; }
    const predict::LoadForecaster &forecaster() const { return forecast_; }
    std::int64_t scaleUps() const { return scaleUps_; }
    std::int64_t scaleDowns() const { return scaleDowns_; }

    /** Record an "autoscale_eval" instant (demand vs capacity, target)
     * per evaluation; null (the default) disables emission. */
    void setTraceRecorder(obs::TraceRecorder *recorder)
    {
        trace_ = recorder;
    }

  private:
    obs::TraceRecorder *trace_ = nullptr;
    AutoscalerConfig config_;
    predict::LoadForecaster forecast_;
    int lowStreak_ = 0;       // consecutive below-low evaluations
    double lastDemand_ = 0.0; // forecast demand, reference units
    std::int64_t scaleUps_ = 0;
    std::int64_t scaleDowns_ = 0;
};

} // namespace chameleon::routing

#endif // CHAMELEON_ROUTING_AUTOSCALER_H
