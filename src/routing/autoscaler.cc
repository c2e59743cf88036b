#include "routing/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "obs/trace_recorder.h"
#include "simkit/check.h"

namespace chameleon::routing {

const sim::NameTable<ScaleUpPolicy> &
scaleUpPolicyTable()
{
    static const sim::NameTable<ScaleUpPolicy> table{
        {ScaleUpPolicy::Default, "default"},
        {ScaleUpPolicy::Fastest, "fastest"}};
    return table;
}

Autoscaler::Autoscaler(AutoscalerConfig config) : config_(config)
{
    CHM_CHECK(config_.minReplicas >= 1, "need at least one replica");
    CHM_CHECK(config_.maxReplicas >= config_.minReplicas,
              "maxReplicas < minReplicas");
    CHM_CHECK(config_.bootMs >= 0.0, "bootMs must be >= 0");
    CHM_CHECK(config_.measuredRateAlpha >= 0.0 &&
                  config_.measuredRateAlpha <= 1.0,
              "measuredRateAlpha must be within [0, 1]");
}

void
Autoscaler::onArrival(sim::SimTime now)
{
    forecast_.recordArrival(now);
}

std::size_t
Autoscaler::evaluate(std::size_t activeReplicas,
                     std::int64_t totalOutstanding, sim::SimTime now,
                     const CapacitySignals &capacity)
{
    // The raw count is what the cluster actually provisioned; the
    // clamped copy drives the decision arithmetic. Tracing both makes
    // min/max saturation visible in Perfetto instead of silently
    // reporting the clamped value as if it were the fleet's state.
    const std::size_t rawActive = activeReplicas;
    activeReplicas = std::clamp(activeReplicas, config_.minReplicas,
                                config_.maxReplicas);

    const double perReplica =
        static_cast<double>(totalOutstanding) /
        static_cast<double>(activeReplicas);

    // Every return funnels through here so the trace sees each
    // evaluation's inputs and verdict, not just the scale events.
    const auto decided = [&](std::size_t target) {
        if (trace_ != nullptr) {
            trace_->instant(obs::kClusterPid, obs::Lane::Control,
                            "autoscale_eval", now,
                            {{"active", activeReplicas},
                             {"raw_active", rawActive},
                             {"target", target},
                             {"outstanding", totalOutstanding},
                             {"demand", lastDemand_},
                             {"capacity",
                              capacity.activeCapacityFactor},
                             {"next_factor",
                              capacity.nextReplicaFactor}});
        }
        return target;
    };

    // Forecast signal: demand in reference-replica units (the scalar
    // replicaServiceRps rates the reference replica; the active set's
    // aggregate capacity factor says how many reference replicas the
    // fleet currently amounts to). With the boot-aware horizon, look
    // ahead at least as far as the next replica's boot latency: a
    // scale-up decided now only delivers capacity after the boot, so a
    // shorter horizon always loses the race against a building burst.
    double demand = 0.0;
    if (config_.replicaServiceRps > 0.0) {
        double horizon = kForecastHorizonSeconds;
        if (config_.bootAwareHorizon) {
            horizon =
                std::max(horizon, capacity.nextReplicaBootSeconds);
        }
        const double rps = forecast_.forecastRps(now, horizon);
        demand = std::ceil(rps / config_.replicaServiceRps);
    }
    lastDemand_ = demand;

    const bool queueHigh = perReplica > kHighWatermark;
    const bool demandHigh = demand > capacity.activeCapacityFactor;
    if ((queueHigh || demandHigh) && activeReplicas < config_.maxReplicas) {
        std::size_t target = activeReplicas + 1;
        if (demandHigh) {
            // Cover the shortfall with replicas of the capacity the
            // scale-up policy would add (exactly demand - active
            // replicas when every factor is 1.0).
            const double shortfall =
                demand - capacity.activeCapacityFactor;
            const double nextFactor =
                capacity.nextReplicaFactor > 0.0
                    ? capacity.nextReplicaFactor
                    : 1.0;
            const double extra = std::ceil(shortfall / nextFactor);
            if (extra > 0.0) {
                target = std::max(
                    target,
                    activeReplicas + static_cast<std::size_t>(extra));
            }
        }
        target = std::min(target, config_.maxReplicas);
        lowStreak_ = 0;
        ++scaleUps_;
        return decided(target);
    }

    // Scale down only when both signals agree the cluster is oversized
    // and the condition persists.
    const bool queueLow = perReplica < kLowWatermark;
    const bool demandLow = config_.replicaServiceRps <= 0.0 ||
                           demand < capacity.activeCapacityFactor;
    if (queueLow && demandLow && activeReplicas > config_.minReplicas) {
        if (++lowStreak_ >= config_.downCooldownPeriods) {
            lowStreak_ = 0;
            ++scaleDowns_;
            return decided(activeReplicas - 1);
        }
    } else {
        lowStreak_ = 0;
    }
    return decided(activeReplicas);
}

} // namespace chameleon::routing
