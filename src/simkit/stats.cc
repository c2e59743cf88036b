#include "simkit/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "simkit/check.h"

namespace chameleon::sim {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/** Unsigned key that orders like the double (see sortDoubles). */
std::uint64_t
sortKey(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return (bits & kSignBit) ? ~bits : bits | kSignBit;
}

double
fromSortKey(std::uint64_t key)
{
    const std::uint64_t bits = (key & kSignBit) ? key & ~kSignBit : ~key;
    double x;
    std::memcpy(&x, &bits, sizeof x);
    return x;
}

} // namespace

void
sortDoubles(std::vector<double> &values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return;
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = sortKey(values[i]);

    constexpr int kPasses = 8; // one per key byte, least significant first
    std::array<std::array<std::size_t, 256>, kPasses> counts{};
    for (const std::uint64_t key : keys) {
        for (int pass = 0; pass < kPasses; ++pass)
            ++counts[pass][(key >> (8 * pass)) & 0xff];
    }
    std::vector<std::uint64_t> scratch(n);
    for (int pass = 0; pass < kPasses; ++pass) {
        const int shift = 8 * pass;
        auto &offsets = counts[pass];
        // Every key has the same byte here: the pass is the identity.
        if (offsets[(keys[0] >> shift) & 0xff] == n)
            continue;
        std::size_t next = 0;
        for (std::size_t &slot : offsets) {
            const std::size_t count = slot;
            slot = next;
            next += count;
        }
        for (const std::uint64_t key : keys)
            scratch[offsets[(key >> shift) & 0xff]++] = key;
        keys.swap(scratch);
    }

    for (std::size_t i = 0; i < n; ++i)
        values[i] = fromSortKey(keys[i]);
}

void
OnlineStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
OnlineStats::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
OnlineStats::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

double
OnlineStats::min() const
{
    return count_ ? min_ : 0.0;
}

double
OnlineStats::max() const
{
    return count_ ? max_ : 0.0;
}

void
PercentileTracker::add(double x)
{
    CHM_CHECK(!std::isnan(x), "percentile sample is NaN (" << x << ")");
    samples_.push_back(x);
    sum_ += x;
    sorted_ = false;
}

const std::vector<double> &
PercentileTracker::sorted() const
{
    if (!sorted_) {
        sortDoubles(samples_);
        sorted_ = true;
    }
    return samples_;
}

double
PercentileTracker::percentile(double p) const
{
    CHM_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    const auto &s = sorted();
    if (s.empty())
        return 0.0;
    if (s.size() == 1)
        return s[0];
    const double rank = (p / 100.0) * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= s.size())
        return s.back();
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>>
PercentileTracker::cdf() const
{
    const auto &s = sorted();
    std::vector<std::pair<double, double>> out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        out.emplace_back(
            s[i], static_cast<double>(i + 1) / static_cast<double>(s.size()));
    }
    return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    CHM_CHECK(hi > lo, "histogram range must be non-empty");
    CHM_CHECK(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

double
Histogram::binLow(std::size_t i) const
{
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + width * static_cast<double>(i);
}

} // namespace chameleon::sim
