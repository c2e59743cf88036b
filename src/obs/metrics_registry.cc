#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "simkit/check.h"

namespace chameleon::obs {

namespace {

/** Upper bucket bound: 2^(index - bias). */
double
bucketUpperBound(int index, int bias)
{
    return std::ldexp(1.0, index - bias);
}

} // namespace

void
Histogram::add(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;

    int index = 0;
    if (value > 0.0) {
        int exp = 0;
        const double mantissa = std::frexp(value, &exp);
        // frexp: value = mantissa * 2^exp, mantissa in [0.5, 1); the
        // smallest power-of-two upper bound is 2^(exp-1) when value
        // sits exactly on it, 2^exp otherwise.
        const int pow2 = mantissa == 0.5 ? exp - 1 : exp;
        index = std::clamp(pow2 + kBucketBias, 0, kBucketCount - 1);
    }
    ++buckets_[index];
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::int64_t target = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::int64_t cumulative = 0;
    for (int i = 0; i < kBucketCount; ++i) {
        cumulative += buckets_[i];
        if (cumulative >= target) {
            const double upper = bucketUpperBound(i, kBucketBias);
            return std::clamp(upper, min_, max_);
        }
    }
    return max_;
}

sim::JsonValue
Histogram::toJson() const
{
    sim::JsonValue object = sim::JsonValue::makeObject();
    object.set("count", sim::JsonValue::makeInt(count_));
    object.set("sum", sim::JsonValue::makeNumber(sum_));
    object.set("mean", sim::JsonValue::makeNumber(mean()));
    object.set("min", sim::JsonValue::makeNumber(min_));
    object.set("max", sim::JsonValue::makeNumber(max_));
    object.set("p50", sim::JsonValue::makeNumber(quantile(0.50)));
    object.set("p90", sim::JsonValue::makeNumber(quantile(0.90)));
    object.set("p99", sim::JsonValue::makeNumber(quantile(0.99)));
    return object;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return gauges_[name];
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

namespace {

struct MetricLeaf
{
    std::string name;
    sim::JsonValue value;
};

/** Segment of `name` starting at `from`; advances `from` past the dot. */
std::string
nextSegment(const std::string &name, std::size_t &from)
{
    const std::size_t dot = name.find('.', from);
    if (dot == std::string::npos) {
        std::string segment = name.substr(from);
        from = name.size();
        return segment;
    }
    std::string segment = name.substr(from, dot - from);
    from = dot + 1;
    return segment;
}

/**
 * Expand the sorted leaves [first, last) into one object, consuming
 * name characters from `depth`. The input is sorted by full name, so
 * leaves sharing a segment are contiguous.
 */
sim::JsonValue
buildTree(const std::vector<MetricLeaf> &leaves, std::size_t first,
          std::size_t last, std::size_t depth)
{
    sim::JsonValue object = sim::JsonValue::makeObject();
    std::size_t i = first;
    while (i < last) {
        std::size_t from = depth;
        const std::string segment = nextSegment(leaves[i].name, from);
        CHM_CHECK(!segment.empty(),
                  "empty segment in metric name '" << leaves[i].name
                                                   << "'");
        // The run of leaves sharing this segment at this depth.
        std::size_t j = i + 1;
        while (j < last &&
               leaves[j].name.compare(depth, segment.size(), segment) ==
                   0 &&
               (leaves[j].name.size() == depth + segment.size() ||
                leaves[j].name[depth + segment.size()] == '.')) {
            ++j;
        }
        const bool isLeaf = from >= leaves[i].name.size();
        if (isLeaf) {
            CHM_CHECK(j == i + 1,
                      "metric name '" << leaves[i].name
                                      << "' is both a value and a "
                                         "prefix of another metric");
            object.set(segment, leaves[i].value);
        } else {
            object.set(segment, buildTree(leaves, i, j, from));
        }
        i = j;
    }
    return object;
}

} // namespace

sim::JsonValue
MetricsRegistry::snapshot() const
{
    std::vector<MetricLeaf> leaves;
    leaves.reserve(size());
    for (const auto &[name, c] : counters_) {
        leaves.push_back(
            MetricLeaf{name, sim::JsonValue::makeInt(c.value())});
    }
    for (const auto &[name, g] : gauges_) {
        leaves.push_back(
            MetricLeaf{name, sim::JsonValue::makeNumber(g.value())});
    }
    for (const auto &[name, h] : histograms_)
        leaves.push_back(MetricLeaf{name, h.toJson()});
    std::sort(leaves.begin(), leaves.end(),
              [](const MetricLeaf &a, const MetricLeaf &b) {
                  return a.name < b.name;
              });
    for (std::size_t i = 1; i < leaves.size(); ++i) {
        CHM_CHECK(leaves[i - 1].name != leaves[i].name,
                  "metric name '" << leaves[i].name
                                  << "' registered as two instrument "
                                     "kinds");
    }
    return buildTree(leaves, 0, leaves.size(), 0);
}

std::string
MetricsRegistry::toJson() const
{
    return snapshot().dump();
}

} // namespace chameleon::obs
