/**
 * @file
 * Mutable per-request state tracked by a serving engine.
 */

#ifndef CHAMELEON_SERVING_LIVE_REQUEST_H
#define CHAMELEON_SERVING_LIVE_REQUEST_H

#include <cstdint>

#include "gpu/kv_cache.h"
#include "simkit/time.h"
#include "workload/request.h"

namespace chameleon::serving {

/** Lifecycle of a request inside an engine. */
enum class RequestPhase {
    Waiting,    ///< In a scheduler queue.
    Prefilling, ///< Admitted; prefill (possibly chunked) in progress.
    Running,    ///< In the decode batch.
    Finished,   ///< All output tokens emitted.
};

/** Live request state; owned by the engine, shared with the scheduler. */
struct LiveRequest
{
    workload::Request req;

    /** Scheduler-visible output-length estimate (predictor output). */
    std::int64_t predictedOutput = 0;
    /** Adapter rank resolved from the pool (0 = base only). */
    int rank = 0;
    RequestPhase phase = RequestPhase::Waiting;
    /** Adapter transfer size resolved from the pool. */
    std::int64_t adapterBytes = 0;
    /** KV pages held in the engine's KvCache (empty while waiting). */
    gpu::KvReservation kv;

    /** Prefill progress in tokens (chunked prefill advances this). */
    std::int64_t prefilled = 0;
    /**
     * Output tokens generated so far (prefill completion emits #1).
     * Stored when the request leaves the decode batch; while it runs,
     * ServingEngine::generated derives the count from decodeOrigin.
     */
    std::int64_t generated = 0;
    /** Engine decode step at which a running request had generated 0
     *  tokens (set each time it joins the decode batch). */
    std::int64_t decodeOrigin = 0;

    /** Time the engine accepted the request (trace arrival). */
    sim::SimTime arrival = 0;
    /** First admission out of the wait queue; kTimeNever until then. */
    sim::SimTime admitTime = sim::kTimeNever;
    /** First-token completion; defines TTFT. */
    sim::SimTime firstTokenTime = sim::kTimeNever;
    /** Completion of the last token; defines E2E latency. */
    sim::SimTime finishTime = sim::kTimeNever;
    /** Time the request's adapter became usable after admission. */
    sim::SimTime adapterReadyTime = 0;
    /** Adapter-load time spent on this request's critical path. */
    sim::SimTime adapterStall = 0;

    /** Weighted request size assigned by the Chameleon scheduler. */
    double wrs = 0.0;
    /** Scheduler queue index (0 = smallest class); -1 when unassigned. */
    int queueIndex = -1;
    /** Decode-batch join number, engine-assigned on every join; tells a
     *  request's current decode event from one left by a squash. */
    std::uint32_t runSeq = 0;
    /** Scheduler quota tokens held while admitted (returned on finish). */
    std::int64_t quotaTokens = 0;

    /** Times this request was squashed by opportunistic bypass. */
    int squashCount = 0;
    /** Times this request was preempted for memory. */
    int preemptCount = 0;

    bool hasAdapter() const { return req.adapter != model::kNoAdapter; }
    std::int64_t remainingPrefill() const { return req.inputTokens - prefilled; }
    bool prefillDone() const { return prefilled >= req.inputTokens; }

    /** Queueing delay (first admission - arrival); 0 if never admitted. */
    sim::SimTime
    queueDelay() const
    {
        return admitTime == sim::kTimeNever ? 0 : admitTime - arrival;
    }
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_LIVE_REQUEST_H
