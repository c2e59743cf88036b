/**
 * @file
 * Request-level records and aggregate engine metrics.
 */

#ifndef CHAMELEON_SERVING_METRICS_H
#define CHAMELEON_SERVING_METRICS_H

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "model/adapter.h"
#include "simkit/stats.h"
#include "simkit/time.h"
#include "simkit/timeseries.h"
#include "workload/request.h"

namespace chameleon::serving {

/**
 * Immutable per-request outcome, written when a request finishes. The
 * token counts and the three small counters are stored narrow
 * (makeRecord checks each value fits); a reader widens them to
 * std::int64_t before any arithmetic.
 */
struct RequestRecord
{
    std::int64_t id = 0;
    sim::SimTime arrival = 0;
    /** A finished request's prompt fit in KV: far below 2^31. */
    std::int32_t inputTokens = 0;
    std::int32_t outputTokens = 0;
    model::AdapterId adapter = model::kNoAdapter;
    workload::TenantId tenant = workload::kAnonymousTenant;
    int rank = 0;
    /** Index of the replica that served the request: its engine's
     * place in the cluster (0 for a standalone engine). */
    std::int32_t replica = 0;
    sim::SimTime ttft = 0;
    sim::SimTime e2e = 0;
    sim::SimTime queueDelay = 0;
    sim::SimTime adapterStall = 0;
    double wrs = 0.0;
    // int16_t, not int8_t: an int8_t would print as a character.
    std::int16_t queueIndex = -1;
    std::int16_t squashCount = 0;
    std::int16_t preemptCount = 0;
};

// `replica` fills the padding after `rank`: a record per finished
// request is the largest per-request cost of a run.
static_assert(sizeof(RequestRecord) == 88,
              "RequestRecord grew; keep it packed");

struct LiveRequest;

/**
 * The record of a request that `replica` finished. Aborts, naming the
 * field, when a token count or counter does not fit its narrow field.
 */
RequestRecord makeRecord(const LiveRequest &r, std::int32_t replica);

/** The counters of one engine's (or a cluster's) run. */
struct EngineCounters
{
    std::int64_t submitted = 0;
    std::int64_t finished = 0;
    std::int64_t preemptions = 0;
    std::int64_t squashes = 0;
    std::int64_t bypasses = 0;
    std::int64_t iterations = 0;

    /** Adapter residency checks that hit (no transfer needed). */
    std::int64_t adapterHits = 0;
    /** Residency checks that required a host->GPU transfer. */
    std::int64_t adapterMisses = 0;

    /** GPU busy time spent inside iterations. */
    sim::SimTime busyTime = 0;
    /** Prefill tokens processed. */
    std::int64_t prefillTokens = 0;
    /** Decode tokens generated. */
    std::int64_t decodeTokens = 0;
    /** Sum of per-iteration decode batch sizes (mean = /iterations). */
    std::int64_t batchSizeAccum = 0;

    double
    cacheHitRate() const
    {
        const auto total = adapterHits + adapterMisses;
        return total ? static_cast<double>(adapterHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Sum another run's counters into these. */
    EngineCounters &operator+=(const EngineCounters &other);
};

/**
 * What an engine keeps as it runs. A finished request's latencies are
 * only in its record; RunStats builds the trackers from the records.
 */
struct EngineStats : EngineCounters
{
    /** Time between tokens: one sample per decode iteration, in ms. */
    sim::PercentileTracker tbt;

    /** Memory usage samples: (time, bytes) for each tracked region. */
    sim::TimeSeries memTotalUsed;
    sim::TimeSeries memKv;
    sim::TimeSeries memAdapterCache;

    /** Per-request outcome log (always kept; sized by trace length). */
    std::vector<RequestRecord> records;
};

/** A run's stats (RunReport::stats): EngineStats plus the latency
 * trackers fillLatencyTrackers builds from its records. */
struct RunStats : EngineStats
{
    /** TTFT, E2E and queue delay, in seconds. */
    sim::PercentileTracker ttft;
    sim::PercentileTracker e2e;
    sim::PercentileTracker queueDelay;
    /** Adapter load latency on the critical path (Fig. 14), in ms. */
    sim::PercentileTracker loadStall;

    RunStats() = default;
    /** Take `stats` and build the trackers; implicit, so an engine's
     * stats assign to a report's. */
    RunStats(EngineStats stats);
};

/** One RequestRecord latency field and the RunStats tracker it fills,
 * in the tracker's unit; the load stall only for adapter requests. */
struct LatencyField
{
    const char *name;
    sim::SimTime RequestRecord::*field;
    double (*convert)(sim::SimTime);
    bool adaptersOnly;
    sim::PercentileTracker RunStats::*tracker;
};

inline constexpr LatencyField kLatencyFields[] = {
    {"ttft_s", &RequestRecord::ttft, sim::toSeconds, false, &RunStats::ttft},
    {"e2e_s", &RequestRecord::e2e, sim::toSeconds, false, &RunStats::e2e},
    {"queue_delay_s", &RequestRecord::queueDelay, sim::toSeconds, false,
     &RunStats::queueDelay},
    {"load_stall_ms", &RequestRecord::adapterStall, sim::toMillis, true,
     &RunStats::loadStall},
};

/**
 * Fill `stats`' latency trackers from its records, replacing what they
 * held: in record order, each reserved to its exact count.
 */
void fillLatencyTrackers(RunStats &stats);

/**
 * Write records as CSV: a header row, then one row per record in
 * order (times in seconds, the adapter stall in ms). This is the
 * `chameleon_sim --records-csv` file.
 */
void writeRecordsCsv(std::ostream &out,
                     const std::vector<RequestRecord> &records);

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_METRICS_H
