#include "serving/engine.h"

#include <algorithm>
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
      ewmaIterUs_(kInitIterUs)
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

void
ServingEngine::submit(const workload::Request &request)
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
    sim_.scheduleAt(request.arrival, [this, live] { onArrival(live); });
}

void
ServingEngine::submitTrace(const workload::Trace &trace)
{
    for (const auto &r : trace.requests())
        submit(r);
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
    std::vector<std::pair<SimTime, std::int64_t>> frees;
    frees.reserve(running_.size());
    for (const LiveRequest *r : running_) {
        const std::int64_t remaining =
            std::max<std::int64_t>(1, r->predictedOutput - r->generated);
        const SimTime when = sim_.now() + remaining * avgIterTime();
        const std::int64_t freed =
            kv_->bytesForTokens(r->req.inputTokens + r->generated) +
            r->adapterBytes;
        frees.emplace_back(when, freed);
    }
    std::sort(frees.begin(), frees.end());
    std::int64_t acc = mem_->freeBytes();
    for (const auto &[when, freed] : frees) {
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
        std::max<std::int64_t>(1, r->predictedOutput - r->generated);
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
    ctx.now = sim_.now();
    ctx.prefillTokenBudget = config_.admissionTokenBudget;
    ctx.admissionSlots = config_.maxAdmissionsPerIter;
    ctx.tryReserve = [this](LiveRequest *r) { return tryReserve(r); };
    ctx.estimateMemoryFree = [this](std::int64_t bytes) {
        return estimateMemoryFreeTime(bytes);
    };
    ctx.estimateExecTime = [this](const LiveRequest *r) {
        return estimateExecTime(r);
    };
    ctx.freeBytes = [this] { return mem_->freeBytes(); };
    ctx.heldBytes = [this](const LiveRequest *r) {
        return kv_->bytesForTokens(r->req.inputTokens + r->generated + 1) +
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

    // Prefetch / pin refresh over the adapters of waiting requests.
    queuedAdapters_.clear();
    for (const LiveRequest *r : scheduler_->waitingSnapshot()) {
        if (r->hasAdapter())
            queuedAdapters_.push_back(r->req.adapter);
    }
    adapterMgr_->onSchedulingCycle(queuedAdapters_, now);

    // Admissions.
    AdmissionContext ctx = makeContext();
    for (LiveRequest *r : scheduler_->selectAdmissions(ctx)) {
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
    duration += cost_.decodeIterTimeOf(
        running_.begin(), running_.end(), [](const LiveRequest *r) {
            return model::DecodeSlot{r->req.inputTokens + r->generated,
                                     r->rank};
        });
    CHM_CHECK(duration > 0, "iteration with work must take time");

    iterationInFlight_ = true;
    sim_.scheduleAfter(duration,
                       [this, duration] { finishIteration(duration); });
}

bool
ServingEngine::growKv(LiveRequest *r)
{
    const std::int64_t tokens = r->req.inputTokens + r->generated;
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
                         {"generated", victim->generated}});
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

    // Decode step: one token per running request. Work on a snapshot so
    // requests promoted from prefill below do not decode this iteration.
    if (!running_.empty())
        stats_.tbt.add(sim::toMillis(duration));
    stillRunning_.clear();
    finished_.clear();
    for (LiveRequest *r : running_) {
        ++r->generated;
        r->lastTokenTime = now;
        if (r->generated >= r->req.outputTokens) {
            finished_.push_back(r);
        } else {
            stillRunning_.push_back(r);
        }
    }
    running_.swap(stillRunning_);
    for (LiveRequest *r : finished_)
        finishRequest(r);

    // Grow KV for survivors; preempt under unrecoverable pressure. Each
    // preemption releases the youngest request's memory, so the loop
    // makes progress until the growth fits or the batch empties.
    for (std::size_t i = 0; i < running_.size();) {
        LiveRequest *r = running_[i];
        if (growKv(r)) {
            ++i;
            continue;
        }
        preemptForMemory();
        // Retry the same index: either r is still there (victim was the
        // youngest, behind it) or r itself was evicted and the index now
        // points at the next survivor.
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
        r->lastTokenTime = now;
        r->generated = 1;
        prefilling_.erase(
            std::find(prefilling_.begin(), prefilling_.end(), r));
        if (r->generated >= r->req.outputTokens) {
            finishRequest(r);
        } else {
            r->phase = RequestPhase::Running;
            running_.push_back(r);
        }
    }

    scheduler_->onIterationEnd(now);
    iterationInFlight_ = false;
    maybeStartIteration();
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
    auto drop = [r](std::vector<LiveRequest *> &v) {
        auto it = std::find(v.begin(), v.end(), r);
        if (it != v.end())
            v.erase(it);
    };
    drop(prefilling_);
    drop(running_);
    releaseResources(r);
    r->phase = RequestPhase::Waiting;
    r->prefilled = 0;
    r->generated = 0;
    r->firstTokenTime = sim::kTimeNever;
    r->lastTokenTime = sim::kTimeNever;
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

bool
operator==(const EngineConfig &a, const EngineConfig &b)
{
    return a.model == b.model && a.gpu == b.gpu &&
           a.tpDegree == b.tpDegree && a.cost == b.cost &&
           a.workspacePerGpu == b.workspacePerGpu &&
           a.admissionTokenBudget == b.admissionTokenBudget &&
           a.maxNewTokens == b.maxNewTokens &&
           a.predictedReservation == b.predictedReservation &&
           a.prefillChunkTokens == b.prefillChunkTokens &&
           a.maxAdmissionsPerIter == b.maxAdmissionsPerIter &&
           a.maxRunning == b.maxRunning &&
           a.kvPageTokens == b.kvPageTokens &&
           a.memSamplePeriod == b.memSamplePeriod;
}

} // namespace chameleon::serving
