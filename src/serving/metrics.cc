#include "serving/metrics.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <utility>

#include "serving/live_request.h"
#include "simkit/check.h"

namespace chameleon::serving {

namespace {

/** `value` as the narrow type of record field `field`, checked. */
template <typename Narrow, typename Wide>
Narrow
narrowField(Wide value, const char *field)
{
    CHM_CHECK(value >= std::numeric_limits<Narrow>::min() &&
                  value <= std::numeric_limits<Narrow>::max(),
              "RequestRecord::" << field << " cannot hold " << value);
    return static_cast<Narrow>(value);
}

} // namespace

RequestRecord
makeRecord(const LiveRequest &r, std::int32_t replica)
{
    RequestRecord rec;
    rec.replica = replica;
    rec.id = r.req.id;
    rec.arrival = r.arrival;
    rec.inputTokens =
        narrowField<std::int32_t>(r.req.inputTokens, "inputTokens");
    rec.outputTokens =
        narrowField<std::int32_t>(r.req.outputTokens, "outputTokens");
    rec.adapter = r.req.adapter;
    rec.tenant = r.req.tenant;
    rec.rank = r.rank;
    rec.ttft = r.firstTokenTime - r.arrival;
    rec.e2e = r.finishTime - r.arrival;
    rec.queueDelay = r.queueDelay();
    rec.adapterStall = r.adapterStall;
    rec.wrs = r.wrs;
    rec.queueIndex = narrowField<std::int16_t>(r.queueIndex, "queueIndex");
    rec.squashCount =
        narrowField<std::int16_t>(r.squashCount, "squashCount");
    rec.preemptCount =
        narrowField<std::int16_t>(r.preemptCount, "preemptCount");
    return rec;
}

EngineCounters &
EngineCounters::operator+=(const EngineCounters &other)
{
    submitted += other.submitted;
    finished += other.finished;
    preemptions += other.preemptions;
    squashes += other.squashes;
    bypasses += other.bypasses;
    iterations += other.iterations;
    adapterHits += other.adapterHits;
    adapterMisses += other.adapterMisses;
    busyTime += other.busyTime;
    prefillTokens += other.prefillTokens;
    decodeTokens += other.decodeTokens;
    batchSizeAccum += other.batchSizeAccum;
    return *this;
}

RunStats::RunStats(EngineStats stats) : EngineStats(std::move(stats))
{
    fillLatencyTrackers(*this);
}

void
fillLatencyTrackers(RunStats &stats)
{
    const auto &records = stats.records;
    const auto adapters = std::count_if(
        records.begin(), records.end(),
        [](const RequestRecord &r) { return r.adapter != model::kNoAdapter; });
    for (const LatencyField &f : kLatencyFields) {
        stats.*f.tracker = {};
        (stats.*f.tracker)
            .reserve(f.adaptersOnly ? static_cast<std::size_t>(adapters)
                                    : records.size());
    }
    for (const RequestRecord &r : records) {
        for (const LatencyField &f : kLatencyFields) {
            if (!f.adaptersOnly || r.adapter != model::kNoAdapter)
                (stats.*f.tracker).add(f.convert(r.*f.field));
        }
    }
}

void
writeRecordsCsv(std::ostream &out, const std::vector<RequestRecord> &records)
{
    out << "id,arrival_s,input,output,adapter,rank,ttft_s,e2e_s,"
           "queue_delay_s,adapter_stall_ms,wrs,queue,squashes,preempts\n";
    for (const auto &r : records) {
        out << r.id << ',' << sim::toSeconds(r.arrival) << ','
            << r.inputTokens << ',' << r.outputTokens << ',' << r.adapter
            << ',' << r.rank << ',' << sim::toSeconds(r.ttft) << ','
            << sim::toSeconds(r.e2e) << ',' << sim::toSeconds(r.queueDelay)
            << ',' << sim::toMillis(r.adapterStall) << ',' << r.wrs << ','
            << r.queueIndex << ',' << r.squashCount << ','
            << r.preemptCount << '\n';
    }
}

} // namespace chameleon::serving
