/**
 * @file
 * Windowed time-series recorders.
 *
 * Used for figure reproductions that plot a metric over elapsed time
 * (memory usage, PCIe bandwidth per window).
 */

#ifndef CHAMELEON_SIMKIT_TIMESERIES_H
#define CHAMELEON_SIMKIT_TIMESERIES_H

#include <cstdint>
#include <utility>
#include <vector>

#include "simkit/time.h"

namespace chameleon::sim {

/** A (time, value) sample pair. */
struct TimePoint
{
    SimTime time;
    double value;
};

/** Plain time-series of point samples (e.g., instantaneous memory usage). */
class TimeSeries
{
  public:
    void record(SimTime t, double value) { points_.push_back({t, value}); }

    const std::vector<TimePoint> &points() const { return points_; }
    bool empty() const { return points_.empty(); }

  private:
    std::vector<TimePoint> points_;
};

/**
 * Tumbling-window accumulator (sum per window).
 *
 * Used for rate metrics such as PCIe bytes transferred per second.
 */
class WindowedSum
{
  public:
    explicit WindowedSum(SimTime window);

    void record(SimTime t, double value);

    /** One row per window: (window start, sum / window length in seconds). */
    std::vector<TimePoint> ratePerSecond() const;

    /**
     * Mean rate over the windows that recorded at least one sample
     * (busy windows); windows without samples are skipped, so this is
     * not the total divided by the elapsed time. 0 when empty.
     */
    double meanRate() const;

    /** Max of per-window rates; 0 when empty. */
    double maxRate() const;

  private:
    SimTime window_;
    std::vector<std::pair<std::int64_t, double>> windows_;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_TIMESERIES_H
