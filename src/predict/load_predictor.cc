#include "predict/load_predictor.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::predict {

using sim::SimTime;

HistogramLoadPredictor::HistogramLoadPredictor(double windowSeconds)
    : window_(sim::fromSeconds(windowSeconds))
{
    CHM_CHECK(window_ > 0, "window must be positive");
}

void
HistogramLoadPredictor::expire(History &h, SimTime now) const
{
    auto &v = h.arrivals;
    const SimTime cutoff = now - window_;
    v.erase(std::remove_if(v.begin(), v.end(),
                           [cutoff](SimTime t) { return t < cutoff; }),
            v.end());
}

void
HistogramLoadPredictor::recordArrival(model::AdapterId id, SimTime t)
{
    CHM_CHECK(id >= 0, "adapter id out of range: " << id);
    const auto i = static_cast<std::size_t>(id);
    if (i >= history_.size())
        history_.resize(i + 1);
    auto &h = history_[i];
    expire(h, t);
    h.arrivals.push_back(t);
}

double
HistogramLoadPredictor::hotness(model::AdapterId id, SimTime now) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= history_.size())
        return 0.0;
    auto &h = history_[static_cast<std::size_t>(id)];
    expire(h, now);
    const auto &arrivals = h.arrivals;
    if (arrivals.empty())
        return 0.0;
    // Median inter-arrival gap inside the window.
    SimTime median_gap = window_;
    if (arrivals.size() >= 2) {
        std::vector<SimTime> gaps;
        gaps.reserve(arrivals.size() - 1);
        for (std::size_t i = 1; i < arrivals.size(); ++i)
            gaps.push_back(arrivals[i] - arrivals[i - 1]);
        std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                         gaps.end());
        median_gap = std::max<SimTime>(gaps[gaps.size() / 2], 1);
    }
    const SimTime since = now - arrivals.back();
    // Count in window = base hotness; decay once the silence exceeds the
    // typical gap (bursts have ended; cf. keep-alive windows in [48]).
    const double decay =
        1.0 / (1.0 + static_cast<double>(since) /
                         static_cast<double>(median_gap));
    return static_cast<double>(arrivals.size()) * decay;
}

LoadForecaster::LoadForecaster(double windowSeconds)
    : window_(sim::fromSeconds(windowSeconds))
{
    CHM_CHECK(window_ > 0, "window must be positive");
}

void
LoadForecaster::expire(SimTime now) const
{
    const SimTime cutoff = now - window_;
    while (!arrivals_.empty() && arrivals_.front() < cutoff)
        arrivals_.pop_front();
}

void
LoadForecaster::recordArrival(SimTime t)
{
    CHM_CHECK(arrivals_.empty() || t >= arrivals_.back(),
              "arrivals must be recorded in time order");
    if (firstArrival_ == sim::kTimeNever)
        firstArrival_ = t;
    expire(t);
    arrivals_.push_back(t);
}

sim::SimTime
LoadForecaster::observedSpan(SimTime now) const
{
    // Until one full window has elapsed, rates must be normalised by
    // the observed span, not the window — otherwise a fresh forecaster
    // underestimates a burst by elapsed/window exactly when the
    // proactive scale-up signal matters most.
    if (firstArrival_ == sim::kTimeNever)
        return window_;
    const SimTime elapsed = std::max<SimTime>(now - firstArrival_, sim::kSec);
    return std::min(window_, elapsed);
}

double
LoadForecaster::currentRps(SimTime now) const
{
    expire(now);
    return static_cast<double>(arrivals_.size()) /
           sim::toSeconds(observedSpan(now));
}

double
LoadForecaster::forecastRps(SimTime now, double horizonSeconds) const
{
    const double rate = currentRps(now); // expires the window

    if (arrivals_.size() < 4)
        return rate;
    // Split the observed span into halves and difference their rates
    // to get a slope in (requests/s) per second.
    const SimTime span = observedSpan(now);
    const double halfSeconds = sim::toSeconds(span) / 2.0;
    if (halfSeconds < 1.0)
        return rate;
    const SimTime mid = now - span / 2;
    std::size_t recent = 0;
    for (auto it = arrivals_.rbegin();
         it != arrivals_.rend() && *it >= mid; ++it)
        ++recent;
    const double recentRate = static_cast<double>(recent) / halfSeconds;
    const double olderRate =
        static_cast<double>(arrivals_.size() - recent) / halfSeconds;
    const double slope = (recentRate - olderRate) / halfSeconds;
    // `rate` is the span average, i.e. the instantaneous rate at the
    // span midpoint under a linear ramp — extrapolate from there, not
    // from `now`, or a building burst is underestimated by slope*span/2.
    const double fromMidpoint =
        sim::toSeconds(span) / 2.0 + horizonSeconds;
    return std::max(0.0, rate + slope * fromMidpoint);
}

std::vector<model::AdapterId>
HistogramLoadPredictor::hottest(SimTime now, std::size_t k) const
{
    std::vector<std::pair<double, model::AdapterId>> scored;
    scored.reserve(history_.size());
    for (std::size_t i = 0; i < history_.size(); ++i) {
        const auto id = static_cast<model::AdapterId>(i);
        const double score = hotness(id, now);
        if (score > 0.0)
            scored.emplace_back(score, id);
    }
    std::sort(scored.begin(), scored.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<model::AdapterId> out;
    for (std::size_t i = 0; i < scored.size() && i < k; ++i)
        out.push_back(scored[i].second);
    return out;
}

} // namespace chameleon::predict
