#include "serving/slo.h"

#include <algorithm>
#include <iterator>

#include "simkit/check.h"

namespace chameleon::serving {

using sim::SimTime;

IsolatedLatency::IsolatedLatency(model::CostModel cost,
                                 const model::AdapterPool *pool)
    : cost_(std::move(cost)), pool_(pool)
{
}

const std::vector<SimTime> &
IsolatedLatency::decodePrefix(int rank, std::int64_t kvTokens)
{
    auto it = std::find_if(prefix_.begin(), prefix_.end(),
                           [rank](const auto &entry) {
                               return entry.first == rank;
                           });
    if (it == prefix_.end()) {
        prefix_.emplace_back(rank, std::vector<SimTime>{0});
        it = std::prev(prefix_.end());
    }
    std::vector<SimTime> &table = it->second;
    const auto needed = static_cast<std::size_t>(kvTokens) + 1;
    if (table.size() < needed) {
        table.reserve(needed);
        for (auto k = static_cast<std::int64_t>(table.size());
             k <= kvTokens; ++k) {
            table.push_back(table.back() +
                            cost_.decodeIterTime(&rank, 1, k));
        }
    }
    return table;
}

SimTime
IsolatedLatency::e2e(std::int64_t inputTokens, std::int64_t outputTokens,
                     model::AdapterId adapter)
{
    int rank = 0;
    std::int64_t bytes = 0;
    if (adapter != model::kNoAdapter) {
        CHM_CHECK(pool_ != nullptr, "adapter request without pool");
        rank = pool_->spec(adapter).rank;
        bytes = pool_->spec(adapter).bytes;
    }
    // isolatedTtft rejects a negative input, which would index below
    // the table.
    SimTime t = cost_.isolatedTtft(inputTokens, rank, bytes,
                                   /*includeLoad=*/rank > 0);
    // The prefill step emits the first token; each later one is a
    // single-slot decode step over KV lengths input+1 .. input+output-1.
    if (outputTokens > 1) {
        const std::int64_t last = inputTokens + outputTokens - 1;
        const auto &prefix = decodePrefix(rank, last);
        t += prefix[static_cast<std::size_t>(last)] -
             prefix[static_cast<std::size_t>(inputTokens)];
    }
    return t;
}

namespace {

/** Trace-mean isolated E2E; seconds are summed in trace order. */
SimTime
meanOverTrace(const workload::Trace &trace, IsolatedLatency &isolated)
{
    CHM_CHECK(!trace.empty(), "trace must be non-empty");
    double total_s = 0.0;
    for (const auto &r : trace.requests()) {
        total_s += sim::toSeconds(
            isolated.e2e(r.inputTokens, r.outputTokens, r.adapter));
    }
    return sim::fromSeconds(total_s /
                            static_cast<double>(trace.size()));
}

} // namespace

SimTime
meanIsolatedE2e(const workload::Trace &trace, const model::CostModel &cost,
                const model::AdapterPool *pool)
{
    IsolatedLatency isolated(cost, pool);
    return meanOverTrace(trace, isolated);
}

SimTime
computeSlo(const workload::Trace &trace, IsolatedLatency &isolated)
{
    return static_cast<SimTime>(
        kSloMultiplier *
        static_cast<double>(meanOverTrace(trace, isolated)));
}

SimTime
computeSlo(const workload::Trace &trace, const model::CostModel &cost,
           const model::AdapterPool *pool, double multiplier)
{
    IsolatedLatency isolated(cost, pool);
    return static_cast<SimTime>(
        multiplier * static_cast<double>(meanOverTrace(trace, isolated)));
}

double
slowdown(const RequestRecord &record, IsolatedLatency &isolated)
{
    // The record's narrow token counts widen before e2e's arithmetic.
    const SimTime iso =
        isolated.e2e(std::int64_t{record.inputTokens},
                     std::int64_t{record.outputTokens}, record.adapter);
    CHM_CHECK(iso > 0, "isolated latency must be positive");
    return static_cast<double>(record.e2e) / static_cast<double>(iso);
}

sim::PercentileTracker
slowdowns(const std::vector<RequestRecord> &records,
          const model::CostModel &cost, const model::AdapterPool *pool)
{
    IsolatedLatency isolated(cost, pool);
    sim::PercentileTracker out;
    for (const auto &rec : records)
        out.add(slowdown(rec, isolated));
    return out;
}

double
throughputKnee(const std::vector<std::pair<double, double>> &rpsToP99,
               double sloSeconds)
{
    CHM_CHECK(!rpsToP99.empty(), "need at least one sweep point");
    double lastGoodRps = 0.0;
    double lastGoodP99 = 0.0;
    bool any_good = false;
    for (const auto &[rps, p99] : rpsToP99) {
        if (p99 <= sloSeconds) {
            lastGoodRps = rps;
            lastGoodP99 = p99;
            any_good = true;
        } else if (any_good) {
            // Interpolate between the last compliant point and this one.
            const double frac =
                (sloSeconds - lastGoodP99) / (p99 - lastGoodP99);
            return lastGoodRps + frac * (rps - lastGoodRps);
        } else {
            return rps; // violates from the very first point
        }
    }
    return lastGoodRps; // compliant across the entire sweep
}

} // namespace chameleon::serving
