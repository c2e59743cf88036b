/**
 * @file
 * Service-level-objective helpers.
 *
 * The paper sets the SLO to 5x the average request execution time in a
 * low-load system (§5.1) and defines throughput as the highest load a
 * system sustains without violating the P99 TTFT SLO (§5.2.2).
 */

#ifndef CHAMELEON_SERVING_SLO_H
#define CHAMELEON_SERVING_SLO_H

#include <cstdint>
#include <utility>
#include <vector>

#include "model/adapter.h"
#include "model/cost_model.h"
#include "serving/metrics.h"
#include "simkit/time.h"
#include "workload/trace.h"

namespace chameleon::serving {

/**
 * Isolated (run-alone) end-to-end latency of a request, in O(1) per
 * query. Equals CostModel::isolatedE2e exactly: that loop adds one
 * single-slot decode step per output token after the first, and those
 * steps depend only on the KV length and the adapter rank. Each rank
 * keeps a running table prefix[k] = sum of decodeIterTime({{j, rank}})
 * for j = 1..k, grown lazily to the longest KV length asked for, so
 * the decode part is prefix[input + output - 1] - prefix[input]. The
 * sums are integer microseconds, so the difference is bit-exact.
 */
class IsolatedLatency
{
  public:
    /** @param pool adapter catalogue (nullable for base-only traces) */
    IsolatedLatency(model::CostModel cost, const model::AdapterPool *pool);

    /** Isolated E2E of one request; adapter requests include the load. */
    sim::SimTime e2e(std::int64_t inputTokens, std::int64_t outputTokens,
                     model::AdapterId adapter);

  private:
    /** The rank's decode prefix table, holding at least kvTokens + 1
     * entries. */
    const std::vector<sim::SimTime> &decodePrefix(int rank,
                                                  std::int64_t kvTokens);

    model::CostModel cost_;
    const model::AdapterPool *pool_;
    /** (rank, prefix table) pairs; a pool has only a few ranks. */
    std::vector<std::pair<int, std::vector<sim::SimTime>>> prefix_;
};

/**
 * Mean isolated (run-alone) end-to-end latency over a trace, from the
 * cost model; the basis of both the SLO and per-request slowdowns.
 */
sim::SimTime meanIsolatedE2e(const workload::Trace &trace,
                             const model::CostModel &cost,
                             const model::AdapterPool *pool);

/** The paper's TTFT SLO is 5x the mean isolated latency (§5.1). */
inline constexpr double kSloMultiplier = 5.0;

/** Paper SLO: `multiplier` times the mean isolated latency. */
sim::SimTime computeSlo(const workload::Trace &trace,
                        const model::CostModel &cost,
                        const model::AdapterPool *pool,
                        double multiplier = kSloMultiplier);

/** The paper SLO over a caller-owned table (shared across passes). */
sim::SimTime computeSlo(const workload::Trace &trace,
                        IsolatedLatency &isolated);

/** One finished request's slowdown: observed E2E / isolated E2E (§3.3). */
double slowdown(const RequestRecord &record, IsolatedLatency &isolated);

/** Per-request slowdown samples, in record order. */
sim::PercentileTracker slowdowns(const std::vector<RequestRecord> &records,
                                 const model::CostModel &cost,
                                 const model::AdapterPool *pool);

/**
 * Throughput knee: the largest load (from an ascending (rps, p99Ttft)
 * series) whose P99 TTFT stays at or under the SLO. Interpolates
 * linearly between the last compliant and first violating point.
 */
double throughputKnee(const std::vector<std::pair<double, double>> &rpsToP99,
                      double sloSeconds);

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_SLO_H
