#include "chameleon/eviction.h"

#include <algorithm>

#include "chameleon/system_spec.h"
#include "simkit/check.h"

namespace chameleon::core {

ChameleonEviction::ChameleonEviction(double f, double r, double s)
    : f_(f), r_(r), s_(s)
{
    CHM_CHECK(f >= 0 && r >= 0 && s >= 0, "weights must be non-negative");
}

double
ChameleonEviction::score(const EvictionCandidate &c, double maxFreq,
                         sim::SimTime minLast, sim::SimTime maxLast,
                         std::int64_t maxBytes) const
{
    const double freq_n = maxFreq > 0 ? c.frequency / maxFreq : 0.0;
    const double span = static_cast<double>(maxLast - minLast);
    const double rec_n =
        span > 0 ? static_cast<double>(c.lastUsed - minLast) / span : 1.0;
    const double size_n =
        maxBytes > 0 ? static_cast<double>(c.bytes) /
                           static_cast<double>(maxBytes)
                     : 0.0;
    return f_ * freq_n + r_ * rec_n + s_ * size_n;
}

std::size_t
ChameleonEviction::pickVictim(
    const std::vector<EvictionCandidate> &candidates, sim::SimTime)
{
    CHM_CHECK(!candidates.empty(), "no eviction candidates");
    double max_freq = 0.0;
    sim::SimTime min_last = candidates.front().lastUsed;
    sim::SimTime max_last = candidates.front().lastUsed;
    std::int64_t max_bytes = 0;
    for (const auto &c : candidates) {
        max_freq = std::max(max_freq, c.frequency);
        min_last = std::min(min_last, c.lastUsed);
        max_last = std::max(max_last, c.lastUsed);
        max_bytes = std::max(max_bytes, c.bytes);
    }
    std::size_t best = 0;
    double best_score = score(candidates[0], max_freq, min_last, max_last,
                              max_bytes);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        const double s =
            score(candidates[i], max_freq, min_last, max_last, max_bytes);
        if (s < best_score) {
            best_score = s;
            best = i;
        }
    }
    return best;
}

std::size_t
LruEviction::pickVictim(const std::vector<EvictionCandidate> &candidates,
                        sim::SimTime)
{
    CHM_CHECK(!candidates.empty(), "no eviction candidates");
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].lastUsed < candidates[best].lastUsed)
            best = i;
    }
    return best;
}

std::size_t
GdsfEviction::pickVictim(const std::vector<EvictionCandidate> &candidates,
                         sim::SimTime)
{
    CHM_CHECK(!candidates.empty(), "no eviction candidates");
    // H = L + Frequency * Cost / Size; evict min H and age L up to it.
    std::int64_t max_bytes = 1;
    for (const auto &c : candidates)
        max_bytes = std::max(max_bytes, c.bytes);
    auto h_value = [&](const EvictionCandidate &c) {
        const double size_n =
            static_cast<double>(c.bytes) / static_cast<double>(max_bytes);
        return aging_ + c.frequency * (c.loadCostMs / 100.0) /
                            std::max(size_n, 1e-9);
    };
    std::size_t best = 0;
    double best_h = h_value(candidates[0]);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        const double h = h_value(candidates[i]);
        if (h < best_h) {
            best_h = h;
            best = i;
        }
    }
    aging_ = best_h;
    return best;
}

std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(const std::string &name)
{
    EvictionKind kind = EvictionKind::Paper;
    if (!evictionPolicyByName(name, &kind))
        CHM_FATAL("unknown eviction policy: " << name);
    switch (kind) {
      case EvictionKind::Paper:
        return std::make_unique<ChameleonEviction>();
      case EvictionKind::FairShare:
        return std::make_unique<FairShareEviction>();
      case EvictionKind::Lru:
        return std::make_unique<LruEviction>();
      case EvictionKind::Gdsf:
        return std::make_unique<GdsfEviction>();
    }
    CHM_PANIC("unknown eviction kind");
}

} // namespace chameleon::core
