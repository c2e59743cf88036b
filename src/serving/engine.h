/**
 * @file
 * The serving engine: iteration-level continuous batching (Fig. 1).
 *
 * One engine models one GPU (or one tensor-parallel GPU group). Its life
 * is a sequence of iterations; at each iteration boundary it
 *  1. lets the adapter manager run its scheduling-cycle hook (prefetch),
 *  2. asks the scheduler to admit waiting requests (committing KV pages
 *     and adapter residency through AdmissionContext::tryReserve),
 *  3. assembles the iteration's work: chunked prefill for admitted
 *     requests whose adapters are usable, plus one decode step for every
 *     running request,
 *  4. advances the virtual clock by the cost model's iteration time, and
 *  5. at the boundary emits tokens, finishes/grows requests, and starts
 *     the next iteration.
 *
 * A request admitted while its adapter is still in flight waits (its
 * prefill is excluded from iterations until the transfer completes);
 * that waiting is the "adapter loading on the critical path" the paper
 * measures in Figs. 2/14.
 */

#ifndef CHAMELEON_SERVING_ENGINE_H
#define CHAMELEON_SERVING_ENGINE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "gpu/gpu_memory.h"
#include "gpu/kv_cache.h"
#include "gpu/pcie_link.h"
#include "model/cost_model.h"
#include "obs/trace_recorder.h"
#include "predict/output_predictor.h"
#include "serving/adapter_manager.h"
#include "serving/metrics.h"
#include "serving/request_slab.h"
#include "serving/scheduler.h"
#include "simkit/simulator.h"
#include "workload/trace.h"

namespace chameleon::serving {

/** Static engine configuration. */
struct EngineConfig
{
    model::ModelSpec model;
    model::GpuSpec gpu;
    /** Tensor-parallel degree (GPUs fused into this engine). */
    int tpDegree = 1;
    model::CostParams cost{};
    /** Activation/scratch reserve per GPU. */
    std::int64_t workspacePerGpu = 2ll * 1024 * 1024 * 1024;
    /**
     * Prefill tokens the scheduler may admit per iteration. Admission
     * of the first request is never blocked by this (so oversized
     * prompts cannot live-lock the queue); afterwards the budget gates
     * further admissions within one iteration.
     */
    std::int64_t admissionTokenBudget = 512;
    /**
     * KV tokens reserved per request at admission on top of its prompt.
     * Baselines do not know output lengths, so like S-LoRA's
     * max_total_token_num accounting they conservatively reserve the
     * maximum generation length; this is what makes GPU memory the
     * binding admission resource under load.
     */
    std::int64_t maxNewTokens = 512;
    /**
     * Reserve input + predicted output instead of input + maxNewTokens
     * (the Chameleon scheduler's prediction-driven admission). Under-
     * predictions grow on demand and can trigger preemption.
     */
    bool predictedReservation = false;
    /**
     * Max prefill tokens executed per iteration. Admitted requests
     * normally prefill fully in their admission iteration (continuous
     * batching); the chunked-prefill baseline lowers this to spread a
     * long prompt across iterations (Sarathi [1]).
     */
    std::int64_t prefillChunkTokens = 1ll << 40;
    /** Max requests admitted per iteration. */
    int maxAdmissionsPerIter = 8;
    /** Hard cap on concurrently running requests (max batch size). */
    int maxRunning = 256;
    /** KV page granularity in tokens. */
    int kvPageTokens = 16;
    /** Sample memory series at this period. */
    sim::SimTime memSamplePeriod = sim::kSec;
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const EngineConfig &a, const EngineConfig &b);

/**
 * Nominal service rate of one engine with this configuration, in
 * requests/second: the inverse of the analytic cost model's isolated
 * end-to-end latency for a reference request (the Fig. 2 "medium"
 * input, 128 output tokens, base model). A deterministic,
 * hardware-derived capacity estimate — an A100 replica rates higher
 * than an A40 one — used by the cluster to weight capacity-aware
 * routing (routing::ClusterView::serviceWeight) and reported through
 * core::RunReport::perReplicaServiceRate. Not a throughput prediction:
 * batching serves many requests concurrently; only the *ratio*
 * between replicas matters to the router.
 */
double nominalServiceRate(const EngineConfig &config);

/**
 * Expand a GPU fleet into per-replica engine configs: one copy of
 * `base` per GPU, with that GPU swapped in. The single definition of
 * fleet-override semantics, shared by SystemSpec::withFleet, the spec
 * JSON "cluster.fleet"/"cluster.replicas" parsers, the sweep "fleets"
 * axis, and chameleon_sim --fleet.
 */
std::vector<EngineConfig> fleetEngines(
    const EngineConfig &base, const std::vector<model::GpuSpec> &gpus);

/**
 * One execution engine with pluggable scheduler and adapter manager.
 */
class ServingEngine
{
  public:
    /**
     * @param simulator shared event kernel
     * @param config engine parameters
     * @param pool adapter catalogue (may be empty-pool for base-only)
     * @param scheduler admission policy (engine takes ownership)
     * @param predictor output-length estimates for the scheduler
     */
    ServingEngine(sim::Simulator &simulator, EngineConfig config,
                  const model::AdapterPool *pool,
                  std::unique_ptr<Scheduler> scheduler,
                  predict::OutputPredictor *predictor);

    ~ServingEngine();

    /**
     * Install the adapter manager. Must be called exactly once before
     * requests are submitted (split from the constructor because the
     * Chameleon cache manager needs the engine's memory/link objects).
     */
    void setAdapterManager(std::unique_ptr<AdapterManager> manager);

    /**
     * Observe request completions (the cluster's measured service
     * rates). Called synchronously inside the finishing event with the
     * completion timestamp; installing one never alters the event
     * stream. Null (the default) disables the notification.
     */
    void setCompletionListener(std::function<void(sim::SimTime)> listener)
    {
        onFinish_ = std::move(listener);
    }

    /**
     * Attach the span recorder; the engine records under trace process
     * `pid` and propagates the attachment to its adapter manager. Null
     * detaches (the default — no events, identical event streams).
     * Emission is retrospective where possible: a request's phase spans
     * (queue wait, adapter fetch, prefill, decode) are written from its
     * timestamps when it finishes, so tracing adds no simulation
     * events.
     */
    void setTraceRecorder(obs::TraceRecorder *recorder, int pid);

    /**
     * Submit every request in the trace at its arrival time, as one
     * kernel arrival stream (sim::Simulator::scheduleStream): a request
     * is built and its output length predicted when it arrives. The
     * trace is read during the run, so it must outlive it.
     */
    void submitTrace(const workload::Trace &trace);

    /** Submit one request: built and predicted now, scheduled at its
     * arrival time. */
    void submit(const workload::Request &request);

    /** Aggregated results; valid once the simulation has drained. */
    const EngineStats &stats() const { return stats_; }

    /** Finalise derived stats (hit rates, memory series flush). */
    void finalize();

    /** Outstanding (submitted - finished) requests. */
    std::int64_t outstanding() const;

    // --- accessors used by schedulers / cache manager / tests ---
    sim::Simulator &simulator() { return sim_; }
    gpu::GpuMemory &memory() { return *mem_; }
    gpu::KvCache &kvCache() { return *kv_; }
    gpu::PcieLink &pcieLink() { return *link_; }
    const model::CostModel &costModel() const { return cost_; }
    const model::AdapterPool *adapterPool() const { return pool_; }
    AdapterManager &adapterManager() { return *adapterMgr_; }
    const AdapterManager &adapterManager() const { return *adapterMgr_; }
    Scheduler &scheduler() { return *scheduler_; }
    const EngineConfig &config() const { return config_; }

    /** Recent exponentially-weighted mean decode-iteration time. */
    sim::SimTime avgIterTime() const;

    /**
     * Output tokens `r` has generated so far. A running request's count
     * is derived from the engine's decode step, so read it here rather
     * than from LiveRequest::generated, which is only stored when the
     * request leaves the decode batch.
     */
    std::int64_t
    generated(const LiveRequest &r) const
    {
        return r.phase == RequestPhase::Running ? decodeStep_ - r.decodeOrigin
                                                : r.generated;
    }

    /** Estimate when `bytes` will have been freed by running requests. */
    sim::SimTime estimateMemoryFreeTime(std::int64_t bytes) const;

    /** Estimated remaining execution time of a request (predictions). */
    sim::SimTime estimateExecTime(const LiveRequest *r) const;

    /**
     * Squash a prefilling/running request: release its resources, reset
     * progress, and push it back to the front of its queue (§4.3.3).
     */
    void squash(LiveRequest *r);

    /** Live batch views (tests/benches). */
    std::size_t runningCount() const { return running_.size(); }
    std::size_t prefillingCount() const { return prefilling_.size(); }

    /** Look up live request state by id (tests); null when unknown or
     * finished (a finished request's slot is recycled). */
    LiveRequest *findRequest(workload::RequestId id);

    /** LiveRequest slots this engine ever allocated: the peak of its
     * requests in flight, not the requests it served. */
    std::size_t requestSlots() const { return requests_.slots(); }

  private:
    /** Allocate and fill the live state of an arriving request. */
    LiveRequest *makeLive(const workload::Request &request);
    void onArrival(LiveRequest *r);
    void maybeStartIteration();
    void startIteration();
    void finishIteration(sim::SimTime duration);
    ReserveResult tryReserve(LiveRequest *r);
    void finishRequest(LiveRequest *r);
    void emitRequestTrace(const LiveRequest *r);
    void releaseResources(LiveRequest *r);
    bool growKv(LiveRequest *r);
    void preemptForMemory();
    /** Add a request whose prefill just emitted its first token to the
     * decode batch. */
    void joinRunning(LiveRequest *r);
    /** Remove a running request from the decode batch (squash). */
    void eraseRunning(LiveRequest *r);
    /** Queue the next decode step at which running `r` finishes or
     * crosses a KV page. */
    void scheduleDecodeEvent(LiveRequest *r);
    void sampleMemory();
    /** The admission callbacks, bound to this engine. */
    AdmissionContext makeContext();

    sim::Simulator &sim_;
    EngineConfig config_;
    const model::AdapterPool *pool_;
    model::CostModel cost_;
    std::unique_ptr<gpu::GpuMemory> mem_;
    std::unique_ptr<gpu::KvCache> kv_;
    std::unique_ptr<gpu::PcieLink> link_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<AdapterManager> adapterMgr_;
    predict::OutputPredictor *predictor_;
    std::function<void(sim::SimTime)> onFinish_;
    /** Reused by every scheduling cycle (see startIteration). */
    AdmissionContext admission_;
    obs::TraceRecorder *trace_ = nullptr;
    int tracePid_ = 0;
    /** Per-tenant finished counts for the tenant counter lanes (only
     *  touched while a recorder is attached). */
    std::map<workload::TenantId, std::int64_t> tenantFinished_;

    /** The step at which a running request next does decode work: it
     * finishes or its KV grows past the pages it holds. */
    struct DecodeEvent
    {
        std::int64_t step;
        /** The request's runSeq when queued; a squash makes it stale. */
        std::uint32_t runSeq;
        LiveRequest *request;
    };

    RequestSlab requests_; // recycled on finish, block-allocated
    std::vector<LiveRequest *> prefilling_;
    // The decode batch in join order. Decode progress is lazy: every
    // finishIteration advances decodeStep_, which advances the derived
    // `generated` of every running request at once, and only requests
    // with a due DecodeEvent are visited. runningRanks_ holds each
    // running request's rank at the same index and runningKvTokens_
    // the batch's total prompt + generated tokens, so the iteration
    // time reads contiguous ints instead of the requests.
    std::vector<LiveRequest *> running_;
    std::vector<int> runningRanks_;
    std::int64_t runningKvTokens_ = 0;
    std::int64_t decodeStep_ = 0;
    std::uint32_t nextRunSeq_ = 0;
    /** Bumped whenever running_ gains or loses a request. */
    std::uint64_t runningVersion_ = 0;
    /** Min-heap on (step, runSeq): one live event per running request. */
    std::vector<DecodeEvent> decodeEvents_;
    bool iterationInFlight_ = false;
    // estimateMemoryFreeTime's projected (completion time, bytes freed)
    // list, sorted; valid for the clock, decode step and batch version
    // it was built at.
    mutable std::vector<std::pair<sim::SimTime, std::int64_t>> frees_;
    mutable sim::SimTime freesNow_ = sim::kTimeNever;
    mutable std::int64_t freesStep_ = -1;
    mutable std::uint64_t freesVersion_ = 0;
    // Per-iteration scratch, reused so an iteration allocates nothing
    // once the vectors have grown. slice_ and prefillWork_ (its
    // (tokens taken, rank) pairs) carry the in-flight iteration's
    // prefill from startIteration to finishIteration; one iteration is
    // in flight at a time.
    std::vector<model::AdapterId> queuedAdapters_;
    std::vector<LiveRequest *> slice_;
    std::vector<std::pair<std::int64_t, int>> prefillWork_;
    std::vector<LiveRequest *> finished_;
    std::vector<LiveRequest *> crossers_;
    double ewmaIterUs_ = 0.0;
    sim::SimTime lastMemSample_ = sim::kTimeNever;

    EngineStats stats_;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_ENGINE_H
