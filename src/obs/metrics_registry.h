/**
 * @file
 * Hierarchical metrics: counters, gauges, histograms by dotted name.
 *
 * A MetricsRegistry holds named instruments — `replica0.cache.hits`,
 * `cluster.scale_ups`, `replica1.latency.ttft_s` — and snapshots them
 * into one nested JSON object (simkit/json) whose structure follows
 * the dots: `replica0.cache.hits` becomes
 * {"replica0": {"cache": {"hits": N}}}. Storage is a sorted map, so
 * snapshots are deterministic and instrument references stay valid for
 * the registry's lifetime (hot paths can cache the pointer instead of
 * re-resolving the name).
 *
 * Histograms keep exact count/sum/min/max and a log2-bucketed
 * distribution from which approximate p50/p90/p99 are derived (each
 * quantile reports the upper bound of the bucket that crosses it —
 * within 2x of the true value). RunReport's PercentileTrackers remain
 * the exact source for headline latency numbers; the registry trades a
 * little precision for bounded memory and a uniform export shape.
 */

#ifndef CHAMELEON_OBS_METRICS_REGISTRY_H
#define CHAMELEON_OBS_METRICS_REGISTRY_H

#include <cstdint>
#include <map>
#include <string>

#include "simkit/json.h"

namespace chameleon::obs {

/** Monotonic integer count. */
class Counter
{
  public:
    void inc(std::int64_t delta = 1) { value_ += delta; }
    std::int64_t value() const { return value_; }

  private:
    std::int64_t value_ = 0;
};

/** Last-written floating-point value. */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Distribution summary: exact count/sum/min/max plus log2 buckets for
 * approximate quantiles. Negative and zero observations land in the
 * lowest bucket (latencies and sizes are non-negative in practice).
 */
class Histogram
{
  public:
    void add(double value);

    std::int64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    /** Approximate quantile in [0, 1]; see file comment for error. */
    double quantile(double q) const;

    /** {count, sum, mean, min, max, p50, p90, p99}. */
    sim::JsonValue toJson() const;

  private:
    // Buckets cover (2^(i-kBucketBias-1), 2^(i-kBucketBias)]; bucket 0
    // additionally absorbs everything <= 2^-kBucketBias.
    static constexpr int kBucketBias = 32;
    static constexpr int kBucketCount = 96;

    std::int64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::int64_t buckets_[kBucketCount] = {};
};

/**
 * Named instruments with hierarchical JSON export. Names are dotted
 * paths of [A-Za-z0-9_-] segments; a name must not be both a leaf and
 * a prefix of another name (snapshot() fails hard on the conflict).
 */
class MetricsRegistry
{
  public:
    /** Get or create; the reference stays valid for the registry. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    std::size_t size() const
    {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /**
     * All instruments as one nested JSON object, dotted names expanded
     * into the hierarchy, keys in sorted order (deterministic dumps).
     */
    sim::JsonValue snapshot() const;
    /** snapshot().dump(). */
    std::string toJson() const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace chameleon::obs

#endif // CHAMELEON_OBS_METRICS_REGISTRY_H
