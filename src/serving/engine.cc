#include "serving/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "simkit/check.h"
#include "simkit/log.h"

namespace chameleon::serving {

using sim::SimTime;

namespace {
/** Initial iteration-time guess before any iteration has run. */
constexpr double kInitIterUs = 30.0 * 1000.0;
/** EWMA weight of the newest iteration sample. */
constexpr double kIterEwmaAlpha = 0.05;

/** Heap order for a min-heap of decode events on (step, runSeq). */
template <typename Event>
bool
laterEvent(const Event &a, const Event &b)
{
    return a.step != b.step ? a.step > b.step : a.runSeq > b.runSeq;
}
} // namespace

RequestRecord makeRecord(const LiveRequest &r); // metrics.cc

double
nominalServiceRate(const EngineConfig &config)
{
    const model::CostModel cost(config.model, config.gpu,
                                config.tpDegree, config.cost);
    const sim::SimTime e2e = cost.isolatedE2e(
        model::kMediumInputTokens, /*outputTokens=*/128, /*rank=*/0,
        /*adapterBytes=*/0, /*includeLoad=*/false);
    CHM_CHECK(e2e > 0, "cost model produced a non-positive latency");
    return 1.0 / sim::toSeconds(e2e);
}

std::vector<EngineConfig>
fleetEngines(const EngineConfig &base,
             const std::vector<model::GpuSpec> &gpus)
{
    std::vector<EngineConfig> engines;
    engines.reserve(gpus.size());
    for (const auto &gpu : gpus) {
        EngineConfig cfg = base;
        cfg.gpu = gpu;
        engines.push_back(std::move(cfg));
    }
    return engines;
}

ServingEngine::ServingEngine(sim::Simulator &simulator, EngineConfig config,
                             const model::AdapterPool *pool,
                             std::unique_ptr<Scheduler> scheduler,
                             predict::OutputPredictor *predictor)
    : sim_(simulator), config_(std::move(config)), pool_(pool),
      cost_(config_.model, config_.gpu, config_.tpDegree, config_.cost),
      scheduler_(std::move(scheduler)), predictor_(predictor),
      admission_(makeContext()), ewmaIterUs_(kInitIterUs)
{
    CHM_CHECK(scheduler_ != nullptr, "engine needs a scheduler");
    CHM_CHECK(predictor_ != nullptr, "engine needs a length predictor");
    const std::int64_t capacity =
        static_cast<std::int64_t>(config_.tpDegree) * config_.gpu.memBytes;
    const std::int64_t workspace =
        static_cast<std::int64_t>(config_.tpDegree) * config_.workspacePerGpu;
    mem_ = std::make_unique<gpu::GpuMemory>(
        capacity, config_.model.weightsBytes(), workspace);
    kv_ = std::make_unique<gpu::KvCache>(
        *mem_, config_.model.kvBytesPerToken(), config_.kvPageTokens);
    link_ = std::make_unique<gpu::PcieLink>(
        sim_, [this](std::int64_t bytes) {
            return cost_.adapterLoadTime(bytes);
        });
}

ServingEngine::~ServingEngine() = default;

void
ServingEngine::setAdapterManager(std::unique_ptr<AdapterManager> manager)
{
    CHM_CHECK(adapterMgr_ == nullptr, "adapter manager already installed");
    adapterMgr_ = std::move(manager);
    if (trace_ != nullptr)
        adapterMgr_->setTraceRecorder(trace_, tracePid_);
}

void
ServingEngine::setTraceRecorder(obs::TraceRecorder *recorder, int pid)
{
    trace_ = recorder;
    tracePid_ = pid;
    if (adapterMgr_ != nullptr)
        adapterMgr_->setTraceRecorder(recorder, pid);
}

LiveRequest *
ServingEngine::makeLive(const workload::Request &request)
{
    LiveRequest *live = requests_.allocate();
    live->req = request;
    live->arrival = request.arrival;
    live->predictedOutput = predictor_->predict(request);
    if (request.adapter != model::kNoAdapter) {
        CHM_CHECK(pool_ != nullptr, "adapter request without a pool");
        const auto &spec = pool_->spec(request.adapter);
        live->rank = spec.rank;
        live->adapterBytes = spec.bytes;
    }
    return live;
}

void
ServingEngine::submit(const workload::Request &request)
{
    LiveRequest *live = makeLive(request);
    sim_.scheduleAt(request.arrival, [this, live] { onArrival(live); });
}

void
ServingEngine::submitTrace(const workload::Trace &trace)
{
    // One kernel stream for the whole trace: each request is built and
    // predicted when it arrives, so the predictor has seen every
    // completion before it and no state exists for future arrivals.
    sim_.scheduleStream(
        trace.size(),
        [&trace](std::size_t i) { return trace[i].arrival; },
        [this, &trace](std::size_t i) { onArrival(makeLive(trace[i])); });
}

void
ServingEngine::onArrival(LiveRequest *r)
{
    CHM_CHECK(adapterMgr_ != nullptr, "no adapter manager installed");
    ++stats_.submitted;
    r->phase = RequestPhase::Waiting;
    scheduler_->enqueue(r);
    if (r->hasAdapter())
        adapterMgr_->onRequestQueued(r->req.adapter, sim_.now());
    maybeStartIteration();
}

SimTime
ServingEngine::avgIterTime() const
{
    return static_cast<SimTime>(ewmaIterUs_);
}

SimTime
ServingEngine::estimateMemoryFreeTime(std::int64_t bytes) const
{
    // Project each running request's completion from its predicted
    // remaining output, then walk completions until enough bytes free.
    // The sorted projection depends only on the clock, the decode step
    // and the batch, so a scheduling pass that asks once per bypass
    // candidate builds it once.
    const SimTime now = sim_.now();
    if (now != freesNow_ || decodeStep_ != freesStep_ ||
        runningVersion_ != freesVersion_) {
        frees_.clear();
        for (const LiveRequest *r : running_) {
            const std::int64_t done = generated(*r);
            const std::int64_t remaining =
                std::max<std::int64_t>(1, r->predictedOutput - done);
            const SimTime when = now + remaining * avgIterTime();
            const std::int64_t freed =
                kv_->bytesForTokens(r->req.inputTokens + done) +
                r->adapterBytes;
            frees_.emplace_back(when, freed);
        }
        std::sort(frees_.begin(), frees_.end());
        freesNow_ = now;
        freesStep_ = decodeStep_;
        freesVersion_ = runningVersion_;
    }
    std::int64_t acc = mem_->freeBytes();
    for (const auto &[when, freed] : frees_) {
        acc += freed;
        if (acc >= bytes)
            return when;
    }
    return sim::kTimeNever;
}

SimTime
ServingEngine::estimateExecTime(const LiveRequest *r) const
{
    const SimTime prefill =
        cost_.prefillTime(r->remainingPrefill()) +
        cost_.adapterPrefillTime(r->rank, r->remainingPrefill());
    const std::int64_t remaining =
        std::max<std::int64_t>(1, r->predictedOutput - generated(*r));
    return prefill + remaining * avgIterTime();
}

ReserveResult
ServingEngine::tryReserve(LiveRequest *r)
{
    const int active = static_cast<int>(running_.size() +
                                        prefilling_.size());
    if (active >= config_.maxRunning)
        return ReserveResult::BatchFull;

    // KV reservation for the prompt plus the generation budget: the
    // conservative maximum for baselines, the predicted length under
    // Chameleon's prediction-driven admission.
    const std::int64_t gen_budget =
        config_.predictedReservation
            ? std::max<std::int64_t>(r->predictedOutput, 8)
            : config_.maxNewTokens;
    const std::int64_t kvTokens = r->req.inputTokens + gen_budget;
    if (!kv_->tryReserve(r->kv, kvTokens)) {
        const std::int64_t need = kv_->bytesForTokens(kvTokens);
        adapterMgr_->tryFreeMemory(need);
        if (!kv_->tryReserve(r->kv, kvTokens))
            return ReserveResult::NoKvMemory;
    }

    if (r->hasAdapter()) {
        SimTime ready = adapterMgr_->acquire(r->req.adapter, sim_.now());
        if (ready == sim::kTimeNever) {
            // Shrink the idle-adapter cache and retry once.
            adapterMgr_->tryFreeMemory(r->adapterBytes);
            ready = adapterMgr_->acquire(r->req.adapter, sim_.now());
        }
        if (ready == sim::kTimeNever) {
            kv_->release(r->kv);
            return ReserveResult::NoAdapterMemory;
        }
        r->adapterReadyTime = ready;
        r->adapterStall = std::max<SimTime>(0, ready - sim_.now());
    } else {
        r->adapterReadyTime = sim_.now();
        r->adapterStall = 0;
    }
    return ReserveResult::Ok;
}

AdmissionContext
ServingEngine::makeContext()
{
    AdmissionContext ctx;
    ctx.tryReserve = [this](LiveRequest *r) { return tryReserve(r); };
    ctx.estimateMemoryFree = [this](std::int64_t bytes) {
        return estimateMemoryFreeTime(bytes);
    };
    ctx.estimateExecTime = [this](const LiveRequest *r) {
        return estimateExecTime(r);
    };
    ctx.freeBytes = [this] { return mem_->freeBytes(); };
    ctx.heldBytes = [this](const LiveRequest *r) {
        return kv_->bytesForTokens(r->req.inputTokens + generated(*r) + 1) +
               r->adapterBytes;
    };
    ctx.squashForBypass = [this](LiveRequest *r) {
        ++stats_.squashes;
        ++r->squashCount;
        if (trace_ != nullptr) {
            trace_->instant(tracePid_, obs::Lane::Engine, "squash",
                            sim_.now(),
                            {{"request", r->req.id},
                             {"adapter", r->req.adapter}});
        }
        squash(r);
    };
    ctx.noteBypass = [this] {
        ++stats_.bypasses;
        if (trace_ != nullptr) {
            trace_->instant(tracePid_, obs::Lane::Engine, "bypass",
                            sim_.now());
        }
    };
    return ctx;
}

void
ServingEngine::sampleMemory()
{
    const SimTime now = sim_.now();
    if (lastMemSample_ != sim::kTimeNever &&
        now - lastMemSample_ < config_.memSamplePeriod) {
        return;
    }
    lastMemSample_ = now;
    stats_.memTotalUsed.record(
        now, static_cast<double>(mem_->capacity() - mem_->freeBytes()));
    stats_.memKv.record(now, static_cast<double>(mem_->kvBytes()));
    stats_.memAdapterCache.record(
        now, static_cast<double>(adapterMgr_->cachedBytes()));
    if (trace_ != nullptr) {
        trace_->counter(tracePid_, "memory_bytes", now,
                        {{"kv", mem_->kvBytes()},
                         {"adapter_cache", adapterMgr_->cachedBytes()},
                         {"used", mem_->capacity() - mem_->freeBytes()}});
        trace_->counter(tracePid_, "requests", now,
                        {{"running", running_.size()},
                         {"prefilling", prefilling_.size()},
                         {"waiting", scheduler_->waitingCount()}});
    }
}

void
ServingEngine::maybeStartIteration()
{
    if (iterationInFlight_)
        return;
    if (running_.empty() && prefilling_.empty() && !scheduler_->hasWaiting())
        return;
    startIteration();
}

void
ServingEngine::startIteration()
{
    const SimTime now = sim_.now();
    sampleMemory();

    // Prefetch / pin refresh over the adapters of waiting requests,
    // listed only when the manager has a use for them.
    queuedAdapters_.clear();
    if (adapterMgr_->needsQueuedAdapters()) {
        for (const LiveRequest *r : scheduler_->waitingSnapshot()) {
            if (r->hasAdapter())
                queuedAdapters_.push_back(r->req.adapter);
        }
    }
    adapterMgr_->onSchedulingCycle(queuedAdapters_, now);

    // Admissions. The callbacks were bound at construction; only the
    // clock and the per-iteration caps are reset here.
    admission_.now = now;
    admission_.prefillTokenBudget = config_.admissionTokenBudget;
    admission_.admissionSlots = config_.maxAdmissionsPerIter;
    for (LiveRequest *r : scheduler_->selectAdmissions(admission_)) {
        if (r->admitTime == sim::kTimeNever)
            r->admitTime = now;
        r->phase = RequestPhase::Prefilling;
        prefilling_.push_back(r);
        if (r->hasAdapter())
            adapterMgr_->onRequestDequeued(r->req.adapter);
    }

    // Assemble this iteration's prefill slice in admission order within
    // the chunk budget. A request whose adapter transfer is still in
    // flight is skipped: its own first token waits for the load (the
    // per-request critical-path cost of §3.2 / Fig. 14) while the rest
    // of the batch proceeds.
    slice_.clear();
    prefillWork_.clear();
    std::int64_t budget = config_.prefillChunkTokens;
    SimTime earliest_adapter = sim::kTimeNever;
    for (LiveRequest *r : prefilling_) {
        if (budget <= 0)
            break;
        if (r->adapterReadyTime > now) {
            if (earliest_adapter == sim::kTimeNever ||
                r->adapterReadyTime < earliest_adapter) {
                earliest_adapter = r->adapterReadyTime;
            }
            continue; // loading on this request's critical path
        }
        const std::int64_t take = std::min(r->remainingPrefill(), budget);
        if (take <= 0)
            continue;
        slice_.push_back(r);
        prefillWork_.emplace_back(take, r->rank);
        budget -= take;
    }

    if (slice_.empty() && running_.empty()) {
        if (earliest_adapter != sim::kTimeNever) {
            // Idle until the blocking transfer lands.
            sim_.scheduleAt(earliest_adapter,
                            [this] { maybeStartIteration(); });
        } else if (scheduler_->hasWaiting()) {
            // Nothing admissible right now; retry when the link drains
            // (a failed prefetch may fit) or warn on a terminal stall.
            if (link_->busy()) {
                sim_.scheduleAfter(sim::kMsec,
                                   [this] { maybeStartIteration(); });
            } else {
                CHM_WARN("engine stalled with "
                         << scheduler_->waitingCount()
                         << " waiting requests and no running work");
            }
        }
        return;
    }

    SimTime duration = 0;
    if (!prefillWork_.empty())
        duration += cost_.prefillStepTime(prefillWork_);
    duration += cost_.decodeIterTime(runningRanks_.data(),
                                     runningRanks_.size(), runningKvTokens_);
    CHM_CHECK(duration > 0, "iteration with work must take time");

    iterationInFlight_ = true;
    sim_.scheduleAfter(duration,
                       [this, duration] { finishIteration(duration); });
}

bool
ServingEngine::growKv(LiveRequest *r)
{
    const std::int64_t tokens = r->req.inputTokens + generated(*r);
    if (kv_->tryReserve(r->kv, tokens))
        return true;
    adapterMgr_->tryFreeMemory(kv_->bytesForTokens(tokens));
    return kv_->tryReserve(r->kv, tokens);
}

void
ServingEngine::preemptForMemory()
{
    // Memory-pressure fallback: recompute-style preemption of the
    // youngest running request (vLLM semantics). Rare when admission
    // control is sane; counted so experiments can report it.
    CHM_CHECK(!running_.empty(), "preemption with empty batch");
    LiveRequest *victim = running_.back();
    ++stats_.preemptions;
    ++victim->preemptCount;
    if (trace_ != nullptr) {
        trace_->instant(tracePid_, obs::Lane::Engine, "preempt",
                        sim_.now(),
                        {{"request", victim->req.id},
                         {"generated", generated(*victim)}});
    }
    squash(victim);
}

void
ServingEngine::finishIteration(SimTime duration)
{
    const SimTime now = sim_.now();
    ++stats_.iterations;
    stats_.busyTime += duration;
    stats_.decodeTokens += static_cast<std::int64_t>(running_.size());
    stats_.batchSizeAccum += static_cast<std::int64_t>(running_.size());
    for (const auto &work : prefillWork_)
        stats_.prefillTokens += work.first;
    ewmaIterUs_ = (1.0 - kIterEwmaAlpha) * ewmaIterUs_ +
                  kIterEwmaAlpha * static_cast<double>(duration);

    // Decode step: one token per running request. Progress is lazy:
    // advancing decodeStep_ advances every running request's derived
    // `generated`, and only requests that finish or cross a KV page at
    // this step are visited. Requests promoted from prefill below join
    // after the step, so they do not decode this iteration.
    if (!running_.empty())
        stats_.tbt.add(sim::toMillis(duration));
    ++decodeStep_;
    runningKvTokens_ += static_cast<std::int64_t>(running_.size());
    finished_.clear();
    crossers_.clear();
    while (!decodeEvents_.empty() &&
           decodeEvents_.front().step <= decodeStep_) {
        const DecodeEvent event = decodeEvents_.front();
        std::pop_heap(decodeEvents_.begin(), decodeEvents_.end(),
                      laterEvent<DecodeEvent>);
        decodeEvents_.pop_back();
        LiveRequest *r = event.request;
        if (r->phase != RequestPhase::Running || r->runSeq != event.runSeq)
            continue; // left the batch since the event was queued
        if (generated(*r) >= r->req.outputTokens) {
            finished_.push_back(r);
        } else {
            crossers_.push_back(r);
        }
    }

    // Finishers, in join order: the heap pops them in runSeq order, the
    // order of running_, so one merge walk removes them all.
    if (!finished_.empty()) {
        std::size_t kept = 0;
        std::size_t next = 0;
        for (std::size_t i = 0; i < running_.size(); ++i) {
            LiveRequest *r = running_[i];
            if (next < finished_.size() && r == finished_[next]) {
                ++next;
                r->generated = generated(*r);
                runningKvTokens_ -= r->req.inputTokens + r->generated;
                continue;
            }
            running_[kept] = r;
            runningRanks_[kept] = runningRanks_[i];
            ++kept;
        }
        CHM_CHECK(next == finished_.size(), "finisher missing from batch");
        running_.resize(kept);
        runningRanks_.resize(kept);
        ++runningVersion_;
        for (LiveRequest *r : finished_)
            finishRequest(r);
    }

    // Grow KV for crossers in join order; preempt under unrecoverable
    // pressure. Each preemption releases the youngest request's memory,
    // so the loop makes progress until the growth fits or the crosser
    // itself is the victim. A request that crosses no page would grow
    // within the pages it holds, which changes nothing.
    for (LiveRequest *r : crossers_) {
        while (r->phase == RequestPhase::Running) {
            if (growKv(r)) {
                scheduleDecodeEvent(r);
                break;
            }
            preemptForMemory();
        }
    }

    // Prefill progress.
    for (std::size_t i = 0; i < slice_.size(); ++i) {
        LiveRequest *r = slice_[i];
        if (r->phase != RequestPhase::Prefilling)
            continue; // squashed mid-iteration by preemption
        r->prefilled += prefillWork_[i].first;
        CHM_CHECK(r->prefilled <= r->req.inputTokens, "prefill overshoot");
        if (!r->prefillDone())
            continue;
        // First token produced by the prefill step.
        r->firstTokenTime = now;
        r->generated = 1;
        prefilling_.erase(
            std::find(prefilling_.begin(), prefilling_.end(), r));
        if (r->generated >= r->req.outputTokens) {
            finishRequest(r);
        } else {
            joinRunning(r);
        }
    }

    scheduler_->onIterationEnd(now);
    iterationInFlight_ = false;
    maybeStartIteration();
}

void
ServingEngine::joinRunning(LiveRequest *r)
{
    CHM_CHECK(nextRunSeq_ != std::numeric_limits<std::uint32_t>::max(),
              "decode-batch join numbers exhausted");
    r->phase = RequestPhase::Running;
    r->runSeq = nextRunSeq_++;
    r->decodeOrigin = decodeStep_ - r->generated;
    running_.push_back(r);
    runningRanks_.push_back(r->rank);
    runningKvTokens_ += r->req.inputTokens + r->generated;
    ++runningVersion_;
    scheduleDecodeEvent(r);
}

void
ServingEngine::eraseRunning(LiveRequest *r)
{
    const auto it = std::find(running_.begin(), running_.end(), r);
    CHM_CHECK(it != running_.end(), "running request not in batch");
    const auto i = it - running_.begin();
    running_.erase(it);
    runningRanks_.erase(runningRanks_.begin() + i);
    runningKvTokens_ -= r->req.inputTokens + generated(*r);
    ++runningVersion_;
}

void
ServingEngine::scheduleDecodeEvent(LiveRequest *r)
{
    // The request finishes once generated reaches its output length and
    // next crosses a page once prompt + generated exceeds the tokens its
    // pages hold; generated = decodeStep_ - decodeOrigin.
    const std::int64_t finish = r->decodeOrigin + r->req.outputTokens;
    const std::int64_t cross =
        r->decodeOrigin +
        static_cast<std::int64_t>(r->kv.pages) * kv_->pageTokens() -
        r->req.inputTokens + 1;
    const std::int64_t step =
        std::max(std::min(finish, cross), decodeStep_ + 1);
    decodeEvents_.push_back(DecodeEvent{step, r->runSeq, r});
    std::push_heap(decodeEvents_.begin(), decodeEvents_.end(),
                   laterEvent<DecodeEvent>);
}

void
ServingEngine::releaseResources(LiveRequest *r)
{
    kv_->release(r->kv);
    if (r->hasAdapter() && r->adapterReadyTime != sim::kTimeNever)
        adapterMgr_->release(r->req.adapter);
}

void
ServingEngine::finishRequest(LiveRequest *r)
{
    r->phase = RequestPhase::Finished;
    r->finishTime = sim_.now();
    releaseResources(r);
    // One TTFT sample per request, from its final (non-squashed) run.
    const double ttft_s = sim::toSeconds(r->firstTokenTime - r->arrival);
    stats_.ttft.add(ttft_s);
    stats_.ttftOverTime.record(r->firstTokenTime, ttft_s);
    if (r->hasAdapter())
        stats_.loadStall.add(sim::toMillis(r->adapterStall));
    stats_.e2e.add(sim::toSeconds(r->finishTime - r->arrival));
    stats_.queueDelay.add(sim::toSeconds(r->queueDelay()));
    stats_.records.push_back(makeRecord(*r));
    ++stats_.finished;
    if (trace_ != nullptr)
        emitRequestTrace(r);
    if (onFinish_)
        onFinish_(sim_.now());
    predictor_->observe(r->req);
    scheduler_->onRequestFinished(r);
    // Nothing holds `r` past this point; a stale decode event for it
    // was popped before it could finish (its step precedes the finish),
    // and runSeq never repeats, so a reused slot cannot match one.
    requests_.release(r);
}

/**
 * Write the request's lifecycle as async spans (category "request",
 * id = request id) from its recorded timestamps: one enclosing span
 * plus queue wait -> adapter fetch -> prefill -> decode phases. Emitted
 * retrospectively at finish time, so tracing schedules nothing and the
 * simulation's event sequence is untouched.
 */
void
ServingEngine::emitRequestTrace(const LiveRequest *r)
{
    const char *cat = "request";
    const auto id = static_cast<std::int64_t>(r->req.id);
    trace_->asyncBegin(tracePid_, cat, id, "request", r->arrival,
                       {{"input", r->req.inputTokens},
                        {"output", r->req.outputTokens},
                        {"adapter", r->req.adapter},
                        {"tenant", r->req.tenant},
                        {"rank", r->rank},
                        {"squashes", r->squashCount},
                        {"preempts", r->preemptCount}});
    // Per-tenant completion lanes: one counter track per tenant, so a
    // Perfetto timeline shows each tenant's progress under a storm.
    const std::string lane =
        "tenant" + std::to_string(r->req.tenant) + "_finished";
    trace_->counter(tracePid_, lane.c_str(), r->finishTime,
                    {{"finished", ++tenantFinished_[r->req.tenant]}});
    const SimTime admit =
        r->admitTime == sim::kTimeNever ? r->arrival : r->admitTime;
    if (admit > r->arrival) {
        trace_->asyncBegin(tracePid_, cat, id, "queue_wait", r->arrival);
        trace_->asyncEnd(tracePid_, cat, id, "queue_wait", admit);
    }
    // The stall is the portion of the (final) adapter transfer this
    // request actually waited on after admission.
    SimTime prefillStart = admit;
    if (r->adapterStall > 0) {
        trace_->asyncBegin(tracePid_, cat, id, "adapter_fetch", admit,
                           {{"stall_us", r->adapterStall}});
        trace_->asyncEnd(tracePid_, cat, id, "adapter_fetch",
                         admit + r->adapterStall);
        prefillStart = admit + r->adapterStall;
    }
    if (r->firstTokenTime > prefillStart) {
        trace_->asyncBegin(tracePid_, cat, id, "prefill", prefillStart,
                           {{"tokens", r->req.inputTokens}});
        trace_->asyncEnd(tracePid_, cat, id, "prefill",
                         r->firstTokenTime);
    }
    if (r->finishTime > r->firstTokenTime) {
        trace_->asyncBegin(tracePid_, cat, id, "decode",
                           r->firstTokenTime,
                           {{"tokens", r->req.outputTokens}});
        trace_->asyncEnd(tracePid_, cat, id, "decode", r->finishTime);
    }
    trace_->asyncEnd(tracePid_, cat, id, "request", r->finishTime);
}

void
ServingEngine::squash(LiveRequest *r)
{
    CHM_CHECK(r->phase == RequestPhase::Prefilling ||
                  r->phase == RequestPhase::Running,
              "can only squash admitted requests");
    if (r->phase == RequestPhase::Running) {
        eraseRunning(r);
    } else {
        const auto it = std::find(prefilling_.begin(), prefilling_.end(), r);
        CHM_CHECK(it != prefilling_.end(), "prefilling request not in batch");
        prefilling_.erase(it);
    }
    releaseResources(r);
    r->phase = RequestPhase::Waiting;
    r->prefilled = 0;
    r->generated = 0;
    r->firstTokenTime = sim::kTimeNever;
    r->adapterReadyTime = 0;
    scheduler_->requeueFront(r);
    if (r->hasAdapter())
        adapterMgr_->onRequestQueued(r->req.adapter, sim_.now());
}

LiveRequest *
ServingEngine::findRequest(workload::RequestId id)
{
    LiveRequest *found = nullptr;
    requests_.scan([&](LiveRequest &r) {
        if (r.req.id != id)
            return true;
        found = &r;
        return false;
    });
    return found;
}

std::int64_t
ServingEngine::outstanding() const
{
    return stats_.submitted - stats_.finished;
}

void
ServingEngine::finalize()
{
    stats_.adapterHits = adapterMgr_->hits();
    stats_.adapterMisses = adapterMgr_->misses();
}

} // namespace chameleon::serving
