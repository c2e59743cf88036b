/**
 * @file
 * Statistics collection: online moments, percentile sampling, histograms.
 *
 * Percentiles are computed from the full sample vector (experiments here
 * involve at most a few hundred thousand samples per metric, so exact
 * percentiles are affordable and avoid sketch-approximation artifacts in
 * the reproduced tail-latency figures).
 */

#ifndef CHAMELEON_SIMKIT_STATS_H
#define CHAMELEON_SIMKIT_STATS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace chameleon::sim {

/**
 * Sort ascending in O(n): an LSD radix sort over order-preserving
 * IEEE-754 keys (the sign bit of non-negative values is flipped and
 * negative values are inverted), one byte per pass, skipping every
 * pass whose byte is the same in all keys. The output is bit-equal to
 * std::sort's whenever no NaN and no mixed-sign zero is present; -0.0
 * orders before +0.0. Scratch is transient, 16 bytes per value.
 */
void sortDoubles(std::vector<double> &values);

/** Streaming mean/variance/min/max accumulator (Welford). */
class OnlineStats
{
  public:
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const;
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Exact percentile tracker over all added samples.
 *
 * Samples are kept unsorted and sorted lazily on query (sortDoubles);
 * queries between inserts re-sort only when dirty. The mean is a
 * running sum in insertion order, so it reads the same bits before and
 * after a percentile query reorders the samples.
 */
class PercentileTracker
{
  public:
    /** Add one sample; a NaN has no rank and is a checked error. */
    void add(double x);

    /** Percentile in [0, 100]; linear interpolation between ranks. */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }

    /** Mean in O(1): the insertion-order sum over the count. */
    double mean() const;
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** CDF as (value, cumulative fraction) pairs over sorted samples. */
    std::vector<std::pair<double, double>> cdf() const;

    /** All samples, sorted ascending. */
    const std::vector<double> &sorted() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

/** Fixed-width histogram over [lo, hi) with out-of-range clamping. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t bins() const { return counts_.size(); }
    std::size_t binCount(std::size_t i) const { return counts_.at(i); }
    double binLow(std::size_t i) const;
    double binHigh(std::size_t i) const { return binLow(i + 1); }
    std::size_t total() const { return total_; }

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_STATS_H
