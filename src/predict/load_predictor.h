/**
 * @file
 * Histogram-based future-load prediction for adapter prefetching.
 *
 * Implements the serverless keep-alive idea of Shahrad et al. [48] that
 * §4.2.3 borrows: per adapter, track a histogram of inter-arrival times;
 * an adapter is predicted "hot" when the elapsed time since its last use
 * is still inside the mass of its inter-arrival distribution, i.e. more
 * arrivals are likely soon. The Chameleon prefetcher asks for the top-K
 * hot adapters that are not resident and prefetches them off the
 * critical path.
 */

#ifndef CHAMELEON_PREDICT_LOAD_PREDICTOR_H
#define CHAMELEON_PREDICT_LOAD_PREDICTOR_H

#include <deque>
#include <vector>

#include "model/adapter.h"
#include "simkit/time.h"

namespace chameleon::predict {

/** Per-adapter inter-arrival histogram predictor. */
class HistogramLoadPredictor
{
  public:
    /**
     * @param windowSeconds history horizon; arrivals older than this no
     *        longer contribute to an adapter's hotness
     */
    explicit HistogramLoadPredictor(double windowSeconds = 120.0);

    /** Record an arrival for an adapter at time t. */
    void recordArrival(model::AdapterId id, sim::SimTime t);

    /**
     * Probability-like hotness score at time `now`: arrival count inside
     * the window, damped by the time since the last arrival relative to
     * the adapter's median inter-arrival gap.
     */
    double hotness(model::AdapterId id, sim::SimTime now) const;

    /** Adapters ranked by hotness, highest first, top `k`. */
    std::vector<model::AdapterId> hottest(sim::SimTime now,
                                          std::size_t k) const;

  private:
    struct History
    {
        std::vector<sim::SimTime> arrivals; // ring of recent arrivals
    };

    void expire(History &h, sim::SimTime now) const;

    sim::SimTime window_;
    /** Indexed by adapter id; grown to the highest id recorded. */
    mutable std::vector<History> history_;
};

/**
 * Aggregate arrival-rate forecaster for cluster autoscaling.
 *
 * Tracks all arrivals (regardless of adapter) in a sliding window and
 * estimates the current request rate plus a linear trend by comparing
 * the recent half of the window against the older half. The forecast
 * extrapolates that trend over a horizon, so a building burst raises
 * the predicted rate before queues have fully formed — the signal the
 * routing autoscaler combines with queue-depth watermarks.
 */
class LoadForecaster
{
  public:
    /** @param windowSeconds sliding estimation window */
    explicit LoadForecaster(double windowSeconds = 60.0);

    /** Record one request arrival at time t (non-decreasing). */
    void recordArrival(sim::SimTime t);

    /** Smoothed arrival rate over the window at `now`, requests/s. */
    double currentRps(sim::SimTime now) const;

    /**
     * Rate extrapolated `horizonSeconds` ahead using the window trend.
     * Never negative; equals currentRps when the trend is flat or the
     * window holds too few arrivals to estimate a slope.
     */
    double forecastRps(sim::SimTime now, double horizonSeconds) const;

  private:
    void expire(sim::SimTime now) const;
    /** min(window, time since first arrival): rate normalisation. */
    sim::SimTime observedSpan(sim::SimTime now) const;

    sim::SimTime window_;
    sim::SimTime firstArrival_ = sim::kTimeNever;
    mutable std::deque<sim::SimTime> arrivals_;
};

} // namespace chameleon::predict

#endif // CHAMELEON_PREDICT_LOAD_PREDICTOR_H
