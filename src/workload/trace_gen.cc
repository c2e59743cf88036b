#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "simkit/check.h"
#include "simkit/distributions.h"

namespace chameleon::workload {

using model::AdapterId;
using sim::Rng;

namespace {
/** Power-law exponent of a PowerLaw popularity knob. */
constexpr double kPowerLawAlpha = 1.2;
} // namespace

const sim::NameTable<Popularity> &
popularityTable()
{
    static const sim::NameTable<Popularity> table{
        {Popularity::Uniform, "uniform"}, {Popularity::PowerLaw, "powerlaw"}};
    return table;
}

bool
operator==(const LengthDist &a, const LengthDist &b)
{
    return a.median == b.median && a.sigma == b.sigma &&
           a.minTokens == b.minTokens && a.maxTokens == b.maxTokens;
}

bool
operator==(const Burst &a, const Burst &b)
{
    return a.startSeconds == b.startSeconds &&
           a.endSeconds == b.endSeconds &&
           a.rateMultiplier == b.rateMultiplier;
}

double
LengthDist::approxMean() const
{
    return median * std::exp(0.5 * sigma * sigma);
}

TraceGenConfig
splitwiseLike()
{
    // Azure conversation trace scaled down to testbed memory, as the
    // paper does (§3.2): heavy-tailed lengths with medians well below
    // the clamp so a small fraction of requests dominates memory/time.
    TraceGenConfig cfg;
    cfg.input = LengthDist{64.0, 0.9, 4, 768};
    cfg.output = LengthDist{48.0, 0.85, 2, 512};
    cfg.burstMultiplier = 2.5;
    return cfg;
}

TraceGenConfig
wildchatLike()
{
    TraceGenConfig cfg;
    cfg.input = LengthDist{40.0, 0.8, 4, 512};
    cfg.output = LengthDist{32.0, 0.75, 2, 320};
    cfg.burstMultiplier = 2.5;
    return cfg;
}

TraceGenConfig
lmsysLike()
{
    TraceGenConfig cfg;
    cfg.input = LengthDist{32.0, 0.85, 4, 512};
    cfg.output = LengthDist{36.0, 0.7, 2, 320};
    cfg.burstMultiplier = 2.5;
    return cfg;
}

bool
tracePresetByName(const std::string &name, TraceGenConfig *out)
{
    if (name == "splitwise")
        *out = splitwiseLike();
    else if (name == "wildchat")
        *out = wildchatLike();
    else if (name == "lmsys")
        *out = lmsysLike();
    else
        return false;
    return true;
}

const char *
tracePresetNames()
{
    return "splitwise, wildchat, lmsys";
}

TraceGenerator::TraceGenerator(TraceGenConfig config,
                               const model::AdapterPool *pool)
    : config_(std::move(config)), pool_(pool)
{
    if (config_.numAdapters > 0) {
        CHM_CHECK(pool_ != nullptr, "adapter workload needs a pool");
        CHM_CHECK(pool_->size() >= config_.numAdapters,
                  "pool smaller than requested adapter count");
        // Group adapter ids by rank so rank popularity and within-rank
        // popularity can be drawn independently (§5.1).
        std::map<int, std::vector<AdapterId>> byRank;
        for (int id = 0; id < config_.numAdapters; ++id)
            byRank[pool_->spec(id).rank].push_back(id);
        for (auto &[rank, ids] : byRank)
            rankBuckets_.push_back(std::move(ids));
        const double rank_alpha =
            config_.rankPopularity == Popularity::PowerLaw
                ? kPowerLawAlpha : 0.0;
        const double adapter_alpha =
            config_.adapterPopularity == Popularity::PowerLaw
                ? kPowerLawAlpha : 0.0;
        rankSampler_ = std::make_unique<sim::PowerLawSampler>(
            rankBuckets_.size(), rank_alpha);
        for (const auto &ids : rankBuckets_)
            withinSamplers_.emplace_back(ids.size(), adapter_alpha);
    }
}

std::int64_t
TraceGenerator::sampleLength(const LengthDist &dist, Rng &rng) const
{
    const double mu = std::log(dist.median);
    const double x = sim::sampleLognormal(rng, mu, dist.sigma);
    const auto tokens = static_cast<std::int64_t>(std::llround(x));
    return std::clamp(tokens, dist.minTokens, dist.maxTokens);
}

AdapterId
TraceGenerator::sampleAdapter(Rng &rng) const
{
    if (rankBuckets_.empty())
        return model::kNoAdapter;
    const auto bucket = rankSampler_->sample(rng);
    const auto &ids = rankBuckets_[bucket];
    return ids[withinSamplers_[bucket].sample(rng)];
}

/**
 * One tenant's arrival process: the same modulated-Poisson loop as the
 * single-tenant path, at `shareRps`, plus the noisy-neighbour storm
 * window when this is tenant 0.
 */
std::vector<Request>
TraceGenerator::generateTenant(TenantId tenant, double shareRps,
                               Rng root) const
{
    Rng arrivalRng = root.split();
    Rng lengthRng = root.split();
    Rng adapterRng = root.split();

    const bool storming = tenant == 0 && config_.stormMultiplier > 1.0;
    const double stormStart = 0.25 * config_.durationSeconds;
    const double stormEnd = 0.75 * config_.durationSeconds;
    std::vector<Request> reqs;
    const sim::SimTime horizon = sim::fromSeconds(config_.durationSeconds);
    sim::SimTime t = 0;
    double base_rate = shareRps;
    if (config_.burstMultiplier > 1.0 && config_.burstPeriodSeconds > 0) {
        const double p = config_.burstPeriodSeconds;
        const double d =
            std::min(config_.burstDurationSeconds, config_.burstPeriodSeconds);
        const double m = config_.burstMultiplier;
        base_rate = shareRps * p / ((p - d) + d * m);
    }
    while (true) {
        double rate = base_rate;
        const double now_s = sim::toSeconds(t);
        if (config_.burstMultiplier > 1.0 && config_.burstPeriodSeconds > 0) {
            const double phase =
                now_s - std::floor(now_s / config_.burstPeriodSeconds) *
                            config_.burstPeriodSeconds;
            if (phase < config_.burstDurationSeconds)
                rate *= config_.burstMultiplier;
        }
        for (const auto &b : config_.bursts) {
            if (now_s >= b.startSeconds && now_s < b.endSeconds)
                rate *= b.rateMultiplier;
        }
        if (storming && now_s >= stormStart && now_s < stormEnd)
            rate *= config_.stormMultiplier;
        const double gap_s = sim::sampleExponential(arrivalRng, rate);
        t += sim::fromSeconds(gap_s);
        if (t > horizon)
            break;
        Request r;
        r.arrival = t;
        r.inputTokens = sampleLength(config_.input, lengthRng);
        r.outputTokens = sampleLength(config_.output, lengthRng);
        r.adapter = sampleAdapter(adapterRng);
        r.tenant = tenant;
        reqs.push_back(r);
    }
    return reqs;
}

Trace
TraceGenerator::generate()
{
    if (config_.numTenants <= 1) {
        // Pre-tenancy code path, byte-identical draws: the seed-root rng
        // is handed straight to generateTenant, whose three splits are
        // exactly the arrival/length/adapter streams the old loop drew —
        // golden traces and every existing preset stay unchanged.
        std::vector<Request> reqs = generateTenant(
            kAnonymousTenant, config_.rps, Rng(config_.seed));
        RequestId next_id = 0;
        for (auto &r : reqs)
            r.id = next_id++;
        return Trace(std::move(reqs));
    }

    const double share = 1.0 / config_.numTenants;
    Rng rng(config_.seed);
    std::vector<Request> merged;
    for (int tenant = 0; tenant < config_.numTenants; ++tenant) {
        std::vector<Request> part =
            generateTenant(tenant, config_.rps * share, rng.split());
        merged.insert(merged.end(), part.begin(), part.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Request &a, const Request &b) {
                         if (a.arrival != b.arrival)
                             return a.arrival < b.arrival;
                         return a.tenant < b.tenant;
                     });
    RequestId next_id = 0;
    for (auto &r : merged)
        r.id = next_id++;
    return Trace(std::move(merged));
}

} // namespace chameleon::workload
