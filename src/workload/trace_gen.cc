#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "simkit/check.h"
#include "simkit/distributions.h"

namespace chameleon::workload {

using model::AdapterId;
using sim::Rng;

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

void
applyTenantStorm(TraceGenConfig *cfg, double multiplier)
{
    cfg->stormTenant = 0;
    cfg->stormMultiplier = multiplier;
    cfg->stormStartSeconds = 0.25 * cfg->durationSeconds;
    cfg->stormEndSeconds = 0.75 * cfg->durationSeconds;
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
                ? config_.powerLawAlpha : 0.0;
        const double adapter_alpha =
            config_.adapterPopularity == Popularity::PowerLaw
                ? config_.powerLawAlpha : 0.0;
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

std::vector<double>
TraceGenerator::normalisedShares() const
{
    const auto n = static_cast<std::size_t>(config_.numTenants);
    std::vector<double> shares = config_.tenantShares;
    if (shares.empty())
        shares.assign(n, 1.0);
    CHM_CHECK(shares.size() == n,
              "tenant_shares must be empty or have one entry per tenant");
    double total = 0.0;
    for (const double s : shares) {
        CHM_CHECK(s > 0.0, "tenant shares must be positive");
        total += s;
    }
    for (double &s : shares)
        s /= total;
    return shares;
}

/**
 * One tenant's arrival process: the same modulated-Poisson loop as the
 * single-tenant path, at `shareRps`, plus the noisy-neighbour storm
 * window when this tenant is the storm tenant.
 */
std::vector<Request>
TraceGenerator::generateTenant(TenantId tenant, double shareRps,
                               Rng root) const
{
    Rng arrivalRng = root.split();
    Rng lengthRng = root.split();
    Rng adapterRng = root.split();

    const bool storming = tenant == config_.stormTenant &&
                          config_.stormMultiplier > 1.0 &&
                          config_.stormEndSeconds > config_.stormStartSeconds;
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
        if (storming && now_s >= config_.stormStartSeconds &&
            now_s < config_.stormEndSeconds)
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
        if (config_.tenantAdapterSkew && r.adapter != model::kNoAdapter &&
            config_.numTenants > 1) {
            // Rotate each tenant's draws through a different slice of
            // the adapter space: per-tenant skew, unchanged marginal.
            const int span = config_.numAdapters;
            const int shift = tenant * (span / config_.numTenants);
            r.adapter = (r.adapter + shift) % span;
        }
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

    const std::vector<double> shares = normalisedShares();
    Rng rng(config_.seed);
    std::vector<Request> merged;
    for (int tenant = 0; tenant < config_.numTenants; ++tenant) {
        std::vector<Request> part =
            generateTenant(tenant, config_.rps * shares[tenant], rng.split());
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
