#include "traced_stack.h"

#include <algorithm>
#include <map>
#include <memory>

#include "chameleon/cache_manager.h"
#include "chameleon/mlq_scheduler.h"
#include "chameleon/system.h"
#include "fabric/cache_fabric.h"
#include "obs/metrics_registry.h"
#include "predict/history_predictor.h"
#include "predict/length_predictor.h"
#include "routing/router.h"
#include "serving/cluster.h"
#include "serving/engine.h"
#include "serving/slo.h"
#include "simkit/check.h"
#include "simkit/simulator.h"
#include "span_tracer.h"
#include "tenancy/tenant_table.h"
#include "workloads.h"

namespace perfbench {

namespace {

using chm::model::AdapterId;
using chm::serving::LiveRequest;
using chm::serving::ReserveResult;
using chm::sim::SimTime;

/** One sampled slice in this many keeps its raw spans. */
constexpr std::int64_t kSpanSampleEvery = 16;

/** Counts the decorators take beside the span totals. */
struct Counters
{
    std::vector<double> routeNs;
    std::int64_t admitted = 0;
    std::size_t waitingMax = 0;
    std::int64_t reserveOk = 0;
    std::int64_t noAdapterMemory = 0;
    std::int64_t noKvMemory = 0;
    std::int64_t batchFull = 0;
    std::int64_t cycleAdaptersScanned = 0;
};

/** Forwards every ClusterView query; times directory reads. */
class TimedView : public chm::routing::ClusterView
{
  public:
    TimedView(const chm::routing::ClusterView &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::size_t replicaCount() const override
    {
        return inner_.replicaCount();
    }
    std::int64_t outstanding(std::size_t i) const override
    {
        return inner_.outstanding(i);
    }
    bool adapterResident(std::size_t i, AdapterId id) const override
    {
        return inner_.adapterResident(i, id);
    }
    void residentReplicas(AdapterId id,
                          std::vector<std::size_t> *out) const override
    {
        Scope scope(tracer_, Layer::DirectoryRead);
        inner_.residentReplicas(id, out);
    }
    double serviceWeight(std::size_t i) const override
    {
        return inner_.serviceWeight(i);
    }
    const std::vector<double> &serviceWeights() const override
    {
        return inner_.serviceWeights();
    }

  private:
    const chm::routing::ClusterView &inner_;
    SpanTracer &tracer_;
};

class TimedRouter : public chm::routing::Router
{
  public:
    TimedRouter(std::unique_ptr<chm::routing::Router> inner,
                SpanTracer &tracer, Counters &counters)
        : inner_(std::move(inner)), tracer_(tracer), counters_(counters)
    {
    }

    const char *name() const override { return inner_->name(); }

    std::size_t route(const chm::workload::Request &request,
                      const chm::routing::ClusterView &view) override
    {
        const TimedView timed(view, tracer_);
        tracer_.begin(Layer::Route, request.id);
        const std::size_t pick = inner_->route(request, timed);
        counters_.routeNs.push_back(static_cast<double>(tracer_.end()));
        return pick;
    }

    void onReplicaCountChanged(std::size_t activeReplicas) override
    {
        inner_->onReplicaCountChanged(activeReplicas);
    }

    void setTraceRecorder(chm::obs::TraceRecorder *recorder,
                          const chm::sim::Simulator *clock) override
    {
        inner_->setTraceRecorder(recorder, clock);
    }

  private:
    std::unique_ptr<chm::routing::Router> inner_;
    SpanTracer &tracer_;
    Counters &counters_;
};

class TimedScheduler : public chm::serving::Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<chm::serving::Scheduler> inner,
                   SpanTracer &tracer, Counters &counters)
        : inner_(std::move(inner)), tracer_(tracer), counters_(counters)
    {
    }

    const char *name() const override { return inner_->name(); }

    void enqueue(LiveRequest *r) override
    {
        Scope scope(tracer_, Layer::MlqEnqueue, r->req.id);
        inner_->enqueue(r);
    }
    void requeueFront(LiveRequest *r) override
    {
        Scope scope(tracer_, Layer::MlqEnqueue, r->req.id);
        inner_->requeueFront(r);
    }
    bool hasWaiting() const override { return inner_->hasWaiting(); }
    std::size_t waitingCount() const override
    {
        return inner_->waitingCount();
    }

    /** Wraps the engine's admission closures before forwarding, so
     * reservations and context queries made by the scheduler are
     * timed as their own (child) spans. */
    std::vector<LiveRequest *>
    selectAdmissions(chm::serving::AdmissionContext &ctx) override
    {
        Scope scope(tracer_, Layer::MlqSelect);
        counters_.waitingMax =
            std::max(counters_.waitingMax, inner_->waitingCount());
        auto tryReserve = std::move(ctx.tryReserve);
        auto estimateMemoryFree = std::move(ctx.estimateMemoryFree);
        auto estimateExecTime = std::move(ctx.estimateExecTime);
        auto freeBytes = std::move(ctx.freeBytes);
        auto heldBytes = std::move(ctx.heldBytes);
        auto squashForBypass = std::move(ctx.squashForBypass);
        auto noteBypass = std::move(ctx.noteBypass);
        ctx.tryReserve = [&](LiveRequest *r) {
            Scope s(tracer_, Layer::Reserve, r->req.id);
            const ReserveResult result = tryReserve(r);
            switch (result) {
              case ReserveResult::Ok: ++counters_.reserveOk; break;
              case ReserveResult::NoAdapterMemory:
                ++counters_.noAdapterMemory;
                break;
              case ReserveResult::NoKvMemory: ++counters_.noKvMemory; break;
              case ReserveResult::BatchFull: ++counters_.batchFull; break;
            }
            return result;
        };
        ctx.estimateMemoryFree = [&](std::int64_t bytes) {
            Scope s(tracer_, Layer::Context);
            return estimateMemoryFree(bytes);
        };
        ctx.estimateExecTime = [&](const LiveRequest *r) {
            Scope s(tracer_, Layer::Context, r->req.id);
            return estimateExecTime(r);
        };
        ctx.freeBytes = [&] {
            Scope s(tracer_, Layer::Context);
            return freeBytes();
        };
        ctx.heldBytes = [&](const LiveRequest *r) {
            Scope s(tracer_, Layer::Context, r->req.id);
            return heldBytes(r);
        };
        ctx.squashForBypass = [&](LiveRequest *r) {
            Scope s(tracer_, Layer::Context, r->req.id);
            squashForBypass(r);
        };
        ctx.noteBypass = [&] {
            Scope s(tracer_, Layer::Context);
            noteBypass();
        };
        auto admitted = inner_->selectAdmissions(ctx);
        counters_.admitted += static_cast<std::int64_t>(admitted.size());
        ctx.tryReserve = std::move(tryReserve);
        ctx.estimateMemoryFree = std::move(estimateMemoryFree);
        ctx.estimateExecTime = std::move(estimateExecTime);
        ctx.freeBytes = std::move(freeBytes);
        ctx.heldBytes = std::move(heldBytes);
        ctx.squashForBypass = std::move(squashForBypass);
        ctx.noteBypass = std::move(noteBypass);
        return admitted;
    }

    void onRequestFinished(LiveRequest *r) override
    {
        Scope scope(tracer_, Layer::MlqHooks, r->req.id);
        inner_->onRequestFinished(r);
    }
    void onIterationEnd(SimTime now) override
    {
        Scope scope(tracer_, Layer::MlqHooks);
        inner_->onIterationEnd(now);
    }
    std::vector<LiveRequest *> waitingSnapshot() const override
    {
        Scope scope(tracer_, Layer::MlqSnapshot);
        return inner_->waitingSnapshot();
    }

    const chm::serving::Scheduler &inner() const { return *inner_; }

  private:
    std::unique_ptr<chm::serving::Scheduler> inner_;
    SpanTracer &tracer_;
    Counters &counters_;
};

/** Forwards residency transitions to the fabric directory, timed. */
class TimedResidency : public chm::serving::ResidencyEvents
{
  public:
    TimedResidency(chm::serving::ResidencyEvents &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void onLoadStart(int replica, AdapterId id) override
    {
        Scope scope(tracer_, Layer::DirectoryWrite);
        inner_.onLoadStart(replica, id);
    }
    void onLoadComplete(int replica, AdapterId id) override
    {
        Scope scope(tracer_, Layer::DirectoryWrite);
        inner_.onLoadComplete(replica, id);
    }
    void onEvict(int replica, AdapterId id) override
    {
        Scope scope(tracer_, Layer::DirectoryWrite);
        inner_.onEvict(replica, id);
    }
    void onAcquire(int replica, AdapterId id, SimTime now) override
    {
        Scope scope(tracer_, Layer::DirectoryWrite);
        inner_.onAcquire(replica, id, now);
    }
    void onRelease(int replica, AdapterId id) override
    {
        Scope scope(tracer_, Layer::DirectoryWrite);
        inner_.onRelease(replica, id);
    }

  private:
    chm::serving::ResidencyEvents &inner_;
    SpanTracer &tracer_;
};

class TimedAdapterManager : public chm::serving::AdapterManager
{
  public:
    TimedAdapterManager(std::unique_ptr<chm::core::CacheManager> inner,
                        SpanTracer &tracer, Counters &counters)
        : inner_(std::move(inner)), tracer_(tracer), counters_(counters)
    {
    }

    const char *name() const override { return inner_->name(); }

    bool isResident(AdapterId id) const override
    {
        Scope scope(tracer_, Layer::CacheIsResident);
        return inner_->isResident(id);
    }
    SimTime acquire(AdapterId id, SimTime now) override
    {
        Scope scope(tracer_, Layer::CacheAcquire);
        return inner_->acquire(id, now);
    }
    void release(AdapterId id) override
    {
        Scope scope(tracer_, Layer::CacheRelease);
        inner_->release(id);
    }
    bool canMakeResident(AdapterId id) const override
    {
        Scope scope(tracer_, Layer::CacheCanMakeResident);
        return inner_->canMakeResident(id);
    }
    void onRequestQueued(AdapterId id, SimTime now) override
    {
        Scope scope(tracer_, Layer::CacheQueued);
        inner_->onRequestQueued(id, now);
    }
    void onRequestDequeued(AdapterId id) override
    {
        Scope scope(tracer_, Layer::CacheDequeued);
        inner_->onRequestDequeued(id);
    }
    void onSchedulingCycle(const std::vector<AdapterId> &queued,
                           SimTime now) override
    {
        Scope scope(tracer_, Layer::CacheCycle);
        counters_.cycleAdaptersScanned +=
            static_cast<std::int64_t>(queued.size());
        inner_->onSchedulingCycle(queued, now);
    }
    bool tryFreeMemory(std::int64_t bytes) override
    {
        Scope scope(tracer_, Layer::CacheTryFreeMemory);
        return inner_->tryFreeMemory(bytes);
    }
    void setTraceRecorder(chm::obs::TraceRecorder *recorder,
                          int pid) override
    {
        inner_->setTraceRecorder(recorder, pid);
    }
    /** The directory the fabric attaches is wrapped so its writes are
     * timed; the wrapper lives as long as the wrapped manager. */
    void setResidencyListener(chm::serving::ResidencyEvents *listener,
                              int replica) override
    {
        residency_.reset();
        if (listener != nullptr)
            residency_ = std::make_unique<TimedResidency>(*listener, tracer_);
        inner_->setResidencyListener(residency_.get(), replica);
    }
    SimTime peerAdmit(AdapterId id, SimTime readyAt, SimTime now) override
    {
        Scope scope(tracer_, Layer::CachePeerAdmit);
        return inner_->peerAdmit(id, readyAt, now);
    }
    std::int64_t hits() const override { return inner_->hits(); }
    std::int64_t misses() const override { return inner_->misses(); }
    std::int64_t cachedBytes() const override
    {
        Scope scope(tracer_, Layer::CacheCachedBytes);
        return inner_->cachedBytes();
    }

    const chm::core::CacheManager &inner() const { return *inner_; }

  private:
    // Declared before inner_: the cache reports into it until the
    // cache itself is destroyed.
    std::unique_ptr<TimedResidency> residency_;
    std::unique_ptr<chm::core::CacheManager> inner_;
    SpanTracer &tracer_;
    Counters &counters_;
};

class TimedPredictor : public chm::predict::OutputPredictor
{
  public:
    TimedPredictor(std::unique_ptr<chm::predict::OutputPredictor> inner,
                   SpanTracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    const char *name() const override { return inner_->name(); }
    std::int64_t predict(const chm::workload::Request &req) const override
    {
        Scope scope(tracer_, Layer::Predict, req.id);
        return inner_->predict(req);
    }
    void observe(const chm::workload::Request &req) override
    {
        Scope scope(tracer_, Layer::Predict, req.id);
        inner_->observe(req);
    }

  private:
    std::unique_ptr<chm::predict::OutputPredictor> inner_;
    SpanTracer &tracer_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The decorated stack. Construction mirrors core::Runner's constructor
 * for the specs the benchmark's workloads use (MLQ scheduler, Chameleon
 * cache, Auto reservation, no chunked prefill, no SLO admission); run()
 * mirrors Runner::run with each phase timed.
 */
class TracedStack
{
  public:
    TracedStack(const chm::core::SystemSpec &spec,
                const chm::model::AdapterPool &pool)
        : spec_(spec), pool_(pool)
    {
        CHM_CHECK(spec_.validate().empty(), "invalid spec " << spec_.name);
        CHM_CHECK(spec_.scheduler.policy == chm::core::SchedulerPolicy::Mlq &&
                      spec_.adapters.policy ==
                          chm::core::AdapterPolicy::ChameleonCache &&
                      spec_.reservation ==
                          chm::core::ReservationPolicy::Auto &&
                      !spec_.chunkedPrefill &&
                      !spec_.cluster.routerConfig.sloAdmission &&
                      spec_.cluster.autoscaler.scaleUpPolicy ==
                          chm::routing::ScaleUpPolicy::Default,
                  "the traced harness only rebuilds MLQ + Chameleon-cache "
                  "stacks with the default admission and scale-up wiring");

        std::unique_ptr<chm::predict::OutputPredictor> predictor;
        if (spec_.predictor.kind == "history") {
            predictor =
                std::make_unique<chm::predict::HistoryLengthPredictor>();
        } else {
            predictor = std::make_unique<chm::predict::LengthPredictor>(
                spec_.predictor.accuracy, spec_.predictor.seed);
        }
        predictor_ =
            std::make_unique<TimedPredictor>(std::move(predictor), tracer_);

        const auto &ccfg = spec_.cluster;
        auto router = std::make_unique<TimedRouter>(
            chm::routing::makeRouter(ccfg.router, ccfg.routerConfig),
            tracer_, counters_);
        cluster_ = std::make_unique<chm::serving::DataParallelCluster>(
            sim_, [this](std::size_t replica) { return buildEngine(replica); },
            ccfg.replicas, std::move(router));
        if (ccfg.autoscale) {
            cluster_->enableAutoscaler(
                ccfg.autoscaler,
                chm::serving::nominalServiceRate(spec_.engine));
            cluster_->setReferenceEngine(spec_.engine);
        }
        if (spec_.fabricEnabled()) {
            chm::fabric::FabricConfig fcfg;
            fcfg.migration = spec_.fabric.migration;
            fcfg.topology = spec_.fabric.topology;
            fcfg.topK = spec_.fabric.topK;
            fabric_ =
                std::make_unique<chm::fabric::CacheFabric>(sim_, pool_, fcfg);
            cluster_->attachFabric(fabric_.get());
        }
    }

    // The cluster's engine factory holds `this`.
    TracedStack(const TracedStack &) = delete;
    TracedStack &operator=(const TracedStack &) = delete;

    TracedRun run(const chm::workload::Trace &trace,
                  const std::string &spansOut);

  private:
    std::unique_ptr<chm::serving::ServingEngine>
    buildEngine(std::size_t replica)
    {
        chm::serving::EngineConfig ecfg = spec_.resolvedEngine(replica);
        ecfg.predictedReservation = true; // Auto under the MLQ scheduler

        chm::core::MlqConfig mcfg;
        mcfg.sloSeconds = spec_.scheduler.sloSeconds;
        mcfg.refreshPeriod = spec_.scheduler.refreshPeriod;
        mcfg.kvBytesPerToken = ecfg.model.kvBytesPerToken();
        const std::int64_t poolBytes =
            static_cast<std::int64_t>(ecfg.tpDegree) * ecfg.gpu.memBytes -
            ecfg.model.weightsBytes() -
            static_cast<std::int64_t>(ecfg.tpDegree) * ecfg.workspacePerGpu;
        CHM_CHECK(poolBytes > 0, "model does not leave room for requests");
        mcfg.totalTokens = poolBytes / mcfg.kvBytesPerToken;
        mcfg.bypassEnabled = spec_.scheduler.bypass;
        mcfg.dynamic = spec_.scheduler.dynamicQueues;
        mcfg.wrsForm = spec_.scheduler.wrsForm;
        auto scheduler = std::make_unique<TimedScheduler>(
            std::make_unique<chm::core::MlqScheduler>(mcfg, &pool_),
            tracer_, counters_);
        schedulers_.push_back(scheduler.get());

        auto engine = std::make_unique<chm::serving::ServingEngine>(
            sim_, ecfg, &pool_, std::move(scheduler), predictor_.get());

        chm::core::CacheConfig cache;
        cache.evictionPolicy =
            chm::core::evictionPolicyName(spec_.adapters.eviction);
        cache.predictivePrefetch = spec_.adapters.predictivePrefetch;
        if (spec_.adapters.predictivePrefetch)
            cache.predictiveTopK = spec_.adapters.prefetchTopK;
        auto manager = std::make_unique<TimedAdapterManager>(
            std::make_unique<chm::core::CacheManager>(
                pool_, engine->memory(), engine->pcieLink(),
                engine->costModel(), cache),
            tracer_, counters_);
        caches_.push_back(manager.get());
        engine->setAdapterManager(std::move(manager));
        return engine;
    }

    chm::core::SystemSpec spec_;
    const chm::model::AdapterPool &pool_;
    SpanTracer tracer_;
    Counters counters_;
    chm::sim::Simulator sim_;
    std::unique_ptr<TimedPredictor> predictor_;
    // Owned by the cluster's engines.
    std::vector<TimedScheduler *> schedulers_;
    std::vector<TimedAdapterManager *> caches_;
    // Declared before cluster_, which must be destroyed first.
    std::unique_ptr<chm::fabric::CacheFabric> fabric_;
    std::unique_ptr<chm::serving::DataParallelCluster> cluster_;
};

TracedRun
TracedStack::run(const chm::workload::Trace &trace,
                 const std::string &spansOut)
{
    const double start = wallSeconds();
    double mark = start;
    auto lap = [&mark] {
        const double now = wallSeconds();
        const double elapsed = now - mark;
        mark = now;
        return elapsed;
    };

    cluster_->submitTrace(trace);
    const double submitSeconds = lap();

    // Runner::run's drainSimulation, cut into one-simulated-second
    // slices: no event is scheduled from outside between slices, so the
    // event stream is unchanged.
    std::vector<double> sliceMs;
    auto runSlice = [&](SimTime until) {
        const auto index = static_cast<std::int64_t>(sliceMs.size());
        tracer_.setSampling(!spansOut.empty() &&
                            index % kSpanSampleEvery == 0);
        tracer_.begin(Layer::SimSlice, index);
        sim_.runUntil(until);
        sliceMs.push_back(static_cast<double>(tracer_.end()) * 1e-6);
        tracer_.setSampling(false);
    };
    const SimTime duration = trace.duration();
    do {
        runSlice(std::min(sim_.now() + chm::sim::kSec, duration));
    } while (sim_.now() < duration);
    const SimTime drainWindow = 3600 * chm::sim::kSec;
    std::int64_t guard = 1ll << 40;
    while (sim_.pendingEvents() > 0 && guard-- > 0 &&
           sim_.now() < duration + drainWindow) {
        runSlice(sim_.now() + chm::sim::kSec);
        if (sim_.pendingEvents() == 0)
            break;
    }
    lap();

    cluster_->finalize();
    const double finalizeSeconds = lap();

    // --- report building, as Runner::run does it ---
    chm::core::RunReport report;
    const auto &engines = cluster_->engines();
    if (engines.size() == 1) {
        report.stats = engines.front()->stats();
        const auto &link = engines.front()->pcieLink();
        report.pcieUtilisation = link.utilisation();
        report.pcieMeanBytesPerSec = link.bandwidthSeries().meanRate();
        report.pcieMaxBytesPerSec = link.bandwidthSeries().maxRate();
        report.pcieRateSeries = link.bandwidthSeries().ratePerSecond();
    } else {
        report.stats = cluster_->mergedStats();
    }
    report.pcieBytes = cluster_->totalPcieBytes();
    report.pcieTransfers = cluster_->totalPcieTransfers();
    report.cacheHitRate = report.stats.cacheHitRate();
    for (const auto *cache : caches_)
        report.cacheEvictions += cache->inner().evictions();
    for (const auto *scheduler : schedulers_) {
        const auto &mlq =
            static_cast<const chm::core::MlqScheduler &>(scheduler->inner());
        report.mlqQueues = std::max(report.mlqQueues, mlq.queueCount());
    }
    report.perReplicaFinished = cluster_->perReplicaFinished();
    report.perReplicaServiceRate = cluster_->serviceRates();
    report.perReplicaEffectiveRate = cluster_->effectiveServiceRates();
    report.peakReplicas = engines.size();
    report.finalActiveReplicas = cluster_->activeReplicas();
    report.scaleUps = cluster_->scaleUps();
    report.scaleDowns = cluster_->scaleDowns();
    const auto &boot = cluster_->bootStats();
    report.bootEvents = boot.boots;
    report.totalBootSeconds = chm::sim::toSeconds(boot.totalBootTime);
    report.requestsDelayedByBoot = boot.requestsDelayedByBoot;
    if (fabric_ != nullptr) {
        report.fabricEnabled = true;
        report.fabricMigrations = fabric_->migrations();
        report.fabricPeerBytes = fabric_->peerBytes();
        report.fabricPeerTransfers = fabric_->peerTransfers();
    }
    std::map<chm::workload::TenantId,
             std::vector<chm::serving::RequestRecord>>
        byTenant;
    for (const auto &rec : report.stats.records)
        byTenant[rec.tenant].push_back(rec);
    for (const auto &[tenant, records] : byTenant) {
        chm::core::TenantReport tr;
        tr.tenant = tenant;
        tr.finished = static_cast<std::int64_t>(records.size());
        chm::sim::PercentileTracker ttft;
        chm::sim::PercentileTracker e2e;
        for (const auto &rec : records) {
            ttft.add(chm::sim::toSeconds(rec.ttft));
            e2e.add(chm::sim::toSeconds(rec.e2e));
        }
        tr.p50TtftSeconds = ttft.p50();
        tr.p99TtftSeconds = ttft.p99();
        tr.p50E2eSeconds = e2e.p50();
        tr.p99E2eSeconds = e2e.p99();
        report.tenants.push_back(tr);
    }
    const double mergeSeconds = lap();

    const chm::model::CostModel cost(spec_.engine.model, spec_.engine.gpu,
                                     spec_.engine.tpDegree,
                                     spec_.engine.cost);
    constexpr double kSloMultiplier = 5.0; // Runner's default
    report.sloMultiplier = kSloMultiplier;
    report.sloSeconds = chm::sim::toSeconds(
        chm::serving::computeSlo(trace, cost, &pool_, kSloMultiplier));
    std::vector<double> weightedService;
    std::int64_t metOverall = 0;
    for (auto &tr : report.tenants) {
        const auto &records = byTenant[tr.tenant];
        const auto slowdown = chm::serving::slowdowns(records, cost, &pool_);
        tr.meanSlowdown = slowdown.mean();
        tr.p99Slowdown = slowdown.p99();
        tr.sloSeconds =
            report.sloSeconds * spec_.tenancy.sloMultiplierFor(tr.tenant);
        std::int64_t met = 0;
        for (const auto &rec : records) {
            if (chm::sim::toSeconds(rec.ttft) <= tr.sloSeconds)
                ++met;
        }
        metOverall += met;
        tr.sloAttainment = ratio(static_cast<double>(met),
                                 static_cast<double>(records.size()));
        weightedService.push_back(static_cast<double>(tr.finished) /
                                  spec_.tenancy.weightFor(tr.tenant));
    }
    report.fairnessIndex = chm::tenancy::jainIndex(weightedService);
    report.sloAttainment =
        ratio(static_cast<double>(metOverall),
              static_cast<double>(report.stats.finished));
    const double sloSeconds = lap();

    chm::obs::MetricsRegistry registry;
    chm::core::fillRunMetrics(registry, *cluster_, report);
    report.metrics = registry.snapshot();
    const double metricsSeconds = lap();

    report.eventHash = chm::core::fnv1a64(
        chm::core::canonicalEventStream(*cluster_, report));
    const double hashSeconds = lap();

    TracedRun out;
    out.eventHash = report.eventHash;
    out.finished = report.stats.finished;
    out.runSeconds = mark - start;
    for (int i = 0; i < static_cast<int>(Layer::Count); ++i)
        out.calls[i] = tracer_.totals(static_cast<Layer>(i)).calls;

    if (!spansOut.empty())
        CHM_CHECK(tracer_.writeSpans(spansOut),
                  "cannot write spans to " << spansOut);

    // --- per-layer metrics ---
    auto &m = out.metrics;
    auto add = [&m](const std::string &name, double value,
                    const char *unit) { m.push_back({name, value, unit}); };
    auto seconds = [this](Layer layer) {
        return static_cast<double>(tracer_.totals(layer).selfNs) * 1e-9;
    };
    auto calls = [this](Layer layer) {
        return static_cast<double>(tracer_.totals(layer).calls);
    };

    const auto &slice = tracer_.totals(Layer::SimSlice);
    const double simSeconds = static_cast<double>(slice.totalNs) * 1e-9;
    const double events = static_cast<double>(sim_.eventsDispatched());
    add("serving.submit_s", submitSeconds, "s");
    add("serving.finalize_s", finalizeSeconds, "s");
    add("simkit.run_s", simSeconds, "s");
    add("simkit.events", events, "count");
    add("simkit.events_per_s", ratio(events, simSeconds), "1/s");
    add("simkit.slices", static_cast<double>(sliceMs.size()), "count");
    add("simkit.wall_ms_per_sim_s.p50", quantile(sliceMs, 0.5), "ms");
    add("simkit.wall_ms_per_sim_s.p90", quantile(sliceMs, 0.9), "ms");

    add("routing.route_calls", calls(Layer::Route), "count");
    add("routing.route_self_s", seconds(Layer::Route), "s");
    add("routing.route_ns.p50", quantile(counters_.routeNs, 0.5), "ns");
    add("routing.route_ns.p99", quantile(counters_.routeNs, 0.99), "ns");

    const double selects = calls(Layer::MlqSelect);
    add("chameleon.mlq.select_calls", selects, "count");
    add("chameleon.mlq.select_self_s", seconds(Layer::MlqSelect), "s");
    add("chameleon.mlq.enqueue_self_s", seconds(Layer::MlqEnqueue), "s");
    add("chameleon.mlq.snapshot_self_s", seconds(Layer::MlqSnapshot), "s");
    add("chameleon.mlq.hooks_self_s", seconds(Layer::MlqHooks), "s");
    add("chameleon.mlq.admitted_per_select",
        ratio(static_cast<double>(counters_.admitted), selects), "ratio");
    add("chameleon.mlq.waiting_max",
        static_cast<double>(counters_.waitingMax), "count");

    const double reserves = calls(Layer::Reserve);
    add("serving.reserve_calls", reserves, "count");
    add("serving.reserve_self_s", seconds(Layer::Reserve), "s");
    add("serving.reserve_ok_ratio",
        ratio(static_cast<double>(counters_.reserveOk), reserves), "ratio");
    add("serving.reserve_fail.no_adapter_memory",
        static_cast<double>(counters_.noAdapterMemory), "count");
    add("serving.reserve_fail.no_kv_memory",
        static_cast<double>(counters_.noKvMemory), "count");
    add("serving.reserve_fail.batch_full",
        static_cast<double>(counters_.batchFull), "count");
    add("serving.ctx_self_s", seconds(Layer::Context), "s");

    const std::pair<const char *, Layer> cacheCalls[] = {
        {"queued", Layer::CacheQueued},
        {"dequeued", Layer::CacheDequeued},
        {"cycle", Layer::CacheCycle},
        {"acquire", Layer::CacheAcquire},
        {"release", Layer::CacheRelease},
        {"try_free_memory", Layer::CacheTryFreeMemory},
        {"peer_admit", Layer::CachePeerAdmit},
        {"cached_bytes", Layer::CacheCachedBytes},
    };
    // canMakeResident (no caller in the engine) and isResident (only
    // the affinity-cache scan calls it) are timed too; they join the
    // cache total and are named by main.cc when they see no calls.
    double cacheSelf =
        seconds(Layer::CacheCanMakeResident) + seconds(Layer::CacheIsResident);
    for (const auto &[name, layer] : cacheCalls) {
        const std::string prefix = std::string("chameleon.cache.") + name;
        add(prefix + "_calls", calls(layer), "count");
        add(prefix + "_self_s", seconds(layer), "s");
        cacheSelf += seconds(layer);
    }
    add("chameleon.cache.self_s", cacheSelf, "s");
    std::int64_t queuedLoads = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    for (const auto *cache : caches_) {
        queuedLoads += cache->inner().queuedLoads();
        hits += cache->inner().hits();
        misses += cache->inner().misses();
    }
    add("chameleon.cache.cycle_adapters_scanned",
        static_cast<double>(counters_.cycleAdaptersScanned), "count");
    add("chameleon.cache.loads_per_scanned",
        ratio(static_cast<double>(queuedLoads),
              static_cast<double>(counters_.cycleAdaptersScanned)),
        "ratio");
    add("chameleon.cache.evictions",
        static_cast<double>(report.cacheEvictions), "count");
    add("chameleon.cache.hit_ratio",
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio");

    add("predict.calls", calls(Layer::Predict), "count");
    add("predict.self_s", seconds(Layer::Predict), "s");

    add("fabric.directory_events", calls(Layer::DirectoryWrite), "count");
    add("fabric.directory_self_s", seconds(Layer::DirectoryWrite), "s");
    add("fabric.directory_reads", calls(Layer::DirectoryRead), "count");
    add("fabric.directory_read_self_s", seconds(Layer::DirectoryRead), "s");
    add("fabric.migrations", static_cast<double>(report.fabricMigrations),
        "count");
    add("fabric.peer_gb", static_cast<double>(report.fabricPeerBytes) * 1e-9,
        "GB");

    add("routing.scale_ups", static_cast<double>(report.scaleUps), "count");
    add("routing.scale_downs", static_cast<double>(report.scaleDowns),
        "count");
    add("serving.boots", static_cast<double>(report.bootEvents), "count");

    const double engineSelf = static_cast<double>(slice.selfNs) * 1e-9;
    add("serving.engine_self_s", engineSelf, "s");
    add("serving.iterations", static_cast<double>(report.stats.iterations),
        "count");
    const auto decode = static_cast<double>(report.stats.decodeTokens);
    add("serving.decode_tokens", decode, "count");
    add("serving.ns_per_decode_token", ratio(engineSelf * 1e9, decode),
        "ns");

    add("chameleon.report.merge_s", mergeSeconds, "s");
    add("chameleon.report.slo_s", sloSeconds, "s");
    add("obs.metrics_s", metricsSeconds, "s");
    add("chameleon.report.hash_s", hashSeconds, "s");
    add("trace.unattributed_s",
        out.runSeconds -
            (submitSeconds + simSeconds + finalizeSeconds + mergeSeconds +
             sloSeconds + metricsSeconds + hashSeconds),
        "s");
    return out;
}

} // namespace

TracedRun
runTraced(const chm::core::SystemSpec &spec,
          const chm::model::AdapterPool &pool,
          const chm::workload::Trace &trace, const std::string &spansOut)
{
    TracedStack stack(spec, pool);
    return stack.run(trace, spansOut);
}

} // namespace perfbench
