#include "simkit/timeseries.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::sim {

WindowedSum::WindowedSum(SimTime window) : window_(window)
{
    CHM_CHECK(window > 0, "window must be positive");
}

void
WindowedSum::record(SimTime t, double value)
{
    const std::int64_t idx = t / window_;
    if (windows_.empty() || windows_.back().first != idx) {
        CHM_CHECK(windows_.empty() || idx > windows_.back().first,
                  "samples must arrive in time order");
        windows_.emplace_back(idx, 0.0);
    }
    windows_.back().second += value;
}

std::vector<TimePoint>
WindowedSum::ratePerSecond() const
{
    std::vector<TimePoint> out;
    out.reserve(windows_.size());
    const double secs = toSeconds(window_);
    for (const auto &[idx, sum] : windows_)
        out.push_back({idx * window_, sum / secs});
    return out;
}

double
WindowedSum::meanRate() const
{
    if (windows_.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &[idx, sum] : windows_)
        total += sum;
    return total / (toSeconds(window_) * static_cast<double>(windows_.size()));
}

double
WindowedSum::maxRate() const
{
    double best = 0.0;
    for (const auto &[idx, sum] : windows_)
        best = std::max(best, sum / toSeconds(window_));
    return best;
}

} // namespace chameleon::sim
