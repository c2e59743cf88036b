#include "chameleon/system.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "fabric/cache_fabric.h"
#include "predict/history_predictor.h"
#include "routing/slo_admission.h"
#include "predict/length_predictor.h"
#include "serving/fifo_scheduler.h"
#include "serving/sjf_scheduler.h"
#include "serving/slo.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/check.h"
#include "tenancy/drr_scheduler.h"
#include "tenancy/tenant_table.h"
#include "tenancy/wfq_scheduler.h"

namespace chameleon::core {

using serving::EngineConfig;
using serving::ServingEngine;

namespace {

/**
 * Placeholder pool for base-only workloads: no request references an
 * adapter, so the manager never performs a lookup against it.
 */
const model::AdapterPool &
placeholderPool()
{
    static const model::AdapterPool pool(model::llama7B(),
                                         std::vector<int>{8});
    return pool;
}

std::unique_ptr<predict::OutputPredictor>
buildPredictor(const PredictorSpec &spec)
{
    if (spec.kind == "history")
        return std::make_unique<predict::HistoryLengthPredictor>();
    CHM_CHECK(spec.kind == "bert", "unknown predictor: " << spec.kind);
    return std::make_unique<predict::LengthPredictor>(spec.accuracy,
                                                      spec.seed);
}

/**
 * Build one fully wired engine (scheduler + adapter manager) from the
 * spec's policy axes, on the given simulator. Every replica of the
 * Runner's cluster is built here; `replica` selects the resolved
 * per-replica engine config (heterogeneous fleets differ per index,
 * homogeneous specs resolve every index to spec.engine). Its
 * reservation and prefill-chunk fields come from the `reservation`
 * and `chunked_prefill`/`chunk_tokens` axes alone.
 */
std::unique_ptr<ServingEngine>
buildEngine(const SystemSpec &spec, std::size_t replica,
            const model::AdapterPool *pool, sim::Simulator &simulator,
            predict::OutputPredictor *predictor)
{
    const bool mlq = spec.scheduler.policy == SchedulerPolicy::Mlq;

    EngineConfig ecfg = spec.resolvedEngine(replica);
    switch (spec.reservation) {
      case ReservationPolicy::Auto:
        ecfg.predictedReservation = mlq;
        break;
      case ReservationPolicy::MaxTokens:
        ecfg.predictedReservation = false;
        break;
      case ReservationPolicy::Predicted:
        ecfg.predictedReservation = true;
        break;
    }
    ecfg.prefillChunkTokens =
        spec.chunkedPrefill ? std::max<std::int64_t>(spec.chunkTokens, 1)
                            : EngineConfig{}.prefillChunkTokens;

    // Scheduler axis.
    std::unique_ptr<serving::Scheduler> scheduler;
    switch (spec.scheduler.policy) {
      case SchedulerPolicy::Fifo:
        scheduler = std::make_unique<serving::FifoScheduler>();
        break;
      case SchedulerPolicy::Sjf:
        scheduler = std::make_unique<serving::SjfScheduler>();
        break;
      case SchedulerPolicy::Mlq: {
        MlqConfig mcfg;
        mcfg.sloSeconds = spec.scheduler.sloSeconds;
        mcfg.refreshPeriod = spec.scheduler.refreshPeriod;
        mcfg.kvBytesPerToken = ecfg.model.kvBytesPerToken();
        const std::int64_t pool_bytes =
            static_cast<std::int64_t>(ecfg.tpDegree) * ecfg.gpu.memBytes -
            ecfg.model.weightsBytes() -
            static_cast<std::int64_t>(ecfg.tpDegree) * ecfg.workspacePerGpu;
        CHM_CHECK(pool_bytes > 0, "model does not leave room for requests");
        mcfg.totalTokens = pool_bytes / mcfg.kvBytesPerToken;
        mcfg.bypassEnabled = spec.scheduler.bypass;
        mcfg.dynamic = spec.scheduler.dynamicQueues;
        mcfg.wrsForm = spec.scheduler.wrsForm;
        scheduler = std::make_unique<MlqScheduler>(mcfg, pool);
        break;
      }
      case SchedulerPolicy::Wfq:
        scheduler =
            std::make_unique<tenancy::WfqScheduler>(spec.tenancy.weights);
        break;
      case SchedulerPolicy::Drr:
        scheduler =
            std::make_unique<tenancy::DrrScheduler>(spec.tenancy.weights);
        break;
    }

    auto engine = std::make_unique<ServingEngine>(
        simulator, ecfg, pool, std::move(scheduler), predictor);

    // Adapter-management axis (needs the engine's memory/link objects).
    std::unique_ptr<serving::AdapterManager> mgr;
    if (pool == nullptr ||
        spec.adapters.policy != AdapterPolicy::ChameleonCache) {
        // Base-only workloads still need a manager object; the baseline
        // one degenerates gracefully when no adapters are referenced.
        const bool prefetch =
            spec.adapters.policy != AdapterPolicy::OnDemand;
        mgr = std::make_unique<serving::SLoraAdapterManager>(
            pool ? *pool : placeholderPool(), engine->memory(),
            engine->pcieLink(), prefetch);
    } else {
        CacheConfig ccfg;
        ccfg.evictionPolicy = evictionPolicyName(spec.adapters.eviction);
        ccfg.predictivePrefetch = spec.adapters.predictivePrefetch;
        if (spec.adapters.predictivePrefetch)
            ccfg.predictiveTopK = spec.adapters.prefetchTopK;
        mgr = std::make_unique<CacheManager>(
            *pool, engine->memory(), engine->pcieLink(),
            engine->costModel(), ccfg);
    }
    engine->setAdapterManager(std::move(mgr));
    return engine;
}

/**
 * Run the trace span, then drain remaining events; the event graph is
 * finite, so the drain window only bounds the clock when the system
 * ends up idle-stalled.
 */
void
drainSimulation(sim::Simulator &simulator, const workload::Trace &trace,
                sim::SimTime drainWindow)
{
    simulator.runUntil(trace.duration());
    std::int64_t guard = 1ll << 40;
    while (simulator.pendingEvents() > 0 && guard-- > 0 &&
           simulator.now() < trace.duration() + drainWindow) {
        simulator.runUntil(simulator.now() + sim::kSec);
        if (simulator.pendingEvents() == 0)
            break;
    }
}

/**
 * The per-tenant accounting (pure record reads): one TenantReport per
 * tenant with finished requests, in ascending tenant id, the fairness
 * index and the overall SLO attainment. Needs report.sloSeconds.
 *
 * It holds one tenant's samples of one kind at a time. The records'
 * indices are grouped by tenant (a counting sort, 4 B per record);
 * then each tenant's TTFT, E2E and slowdown samples fill one tracker
 * after another, each in record order, and each is freed once read.
 */
void
fillTenantReports(const serving::EngineStats &stats,
                  serving::IsolatedLatency &isolated,
                  const TenancySpec &tenancy, RunReport &report)
{
    const auto &records = stats.records;
    CHM_CHECK(records.size() < std::numeric_limits<std::uint32_t>::max(),
              "too many records to index in 32 bits");
    // The distinct tenant ids, ascending: tenant ids are arbitrary
    // integers (a CSV trace may carry any).
    std::vector<workload::TenantId> tenants(records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        tenants[i] = records[i].tenant;
    std::sort(tenants.begin(), tenants.end());
    tenants.erase(std::unique(tenants.begin(), tenants.end()),
                  tenants.end());
    tenants.shrink_to_fit();
    const auto tenantOf = [&tenants](const serving::RequestRecord &r) {
        return static_cast<std::size_t>(
            std::lower_bound(tenants.begin(), tenants.end(), r.tenant) -
            tenants.begin());
    };
    // Counting sort: tenant t's record indices are
    // order[start[t], start[t + 1]), in record order.
    std::vector<std::uint32_t> start(tenants.size() + 1, 0);
    for (const auto &r : records)
        ++start[tenantOf(r) + 1];
    for (std::size_t t = 1; t <= tenants.size(); ++t)
        start[t] += start[t - 1];
    std::vector<std::uint32_t> order(records.size());
    {
        std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
        for (std::uint32_t i = 0; i < records.size(); ++i)
            order[next[tenantOf(records[i])]++] = i;
    }

    std::vector<double> weightedService;
    std::int64_t metOverall = 0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        // One tracker of this tenant's samples of one kind.
        const auto samples = [&](auto &&sampleOf) {
            sim::PercentileTracker tracker;
            tracker.reserve(start[t + 1] - start[t]);
            for (auto i = start[t]; i < start[t + 1]; ++i)
                tracker.add(sampleOf(records[order[i]]));
            return tracker;
        };
        TenantReport tr;
        tr.tenant = tenants[t];
        tr.finished = static_cast<std::int64_t>(start[t + 1] - start[t]);
        {
            const auto ttft = samples([](const serving::RequestRecord &r) {
                return sim::toSeconds(r.ttft);
            });
            tr.p50TtftSeconds = ttft.p50();
            tr.p99TtftSeconds = ttft.p99();
            if (report.sloSeconds > 0.0) {
                tr.sloSeconds =
                    report.sloSeconds * tenancy.sloMultiplierFor(tr.tenant);
                // Requests that met the SLO: the sorted TTFT samples at
                // or under it.
                const auto &sorted = ttft.sorted();
                const auto met = static_cast<std::int64_t>(
                    std::upper_bound(sorted.begin(), sorted.end(),
                                     tr.sloSeconds) -
                    sorted.begin());
                metOverall += met;
                tr.sloAttainment = static_cast<double>(met) /
                                   static_cast<double>(tr.finished);
            }
        }
        {
            const auto e2e = samples([](const serving::RequestRecord &r) {
                return sim::toSeconds(r.e2e);
            });
            tr.p50E2eSeconds = e2e.p50();
            tr.p99E2eSeconds = e2e.p99();
        }
        {
            const auto slowdown =
                samples([&isolated](const serving::RequestRecord &r) {
                    return serving::slowdown(r, isolated);
                });
            tr.meanSlowdown = slowdown.mean();
            tr.p99Slowdown = slowdown.p99();
        }
        // Service per unit weight, not slowdown: FIFO equalises delay
        // (equal misery scores a perfect raw-slowdown index) while a
        // fair scheduler concentrates delay on the over-demanding
        // tenant; what WFQ/DRR equalise is weighted service.
        weightedService.push_back(static_cast<double>(tr.finished) /
                                  tenancy.weightFor(tr.tenant));
        report.tenants.push_back(tr);
    }
    report.fairnessIndex = tenancy::jainIndex(weightedService);
    if (report.sloSeconds > 0.0 && stats.finished > 0) {
        report.sloAttainment = static_cast<double>(metOverall) /
                               static_cast<double>(stats.finished);
    }
}

} // namespace

Runner::Runner(SystemSpec spec, const model::AdapterPool *pool)
    : spec_(std::move(spec)), pool_(pool)
{
    const auto errors = spec_.validate();
    if (!errors.empty()) {
        std::ostringstream os;
        os << "invalid SystemSpec '" << spec_.name << "':";
        for (const auto &e : errors)
            os << "\n  - " << e;
        CHM_FATAL(os.str());
    }
    // One predictor shared by all replicas (it is a per-request oracle,
    // not per-engine state).
    predictor_ = buildPredictor(spec_.predictor);
    const ClusterSpec &ccfg = spec_.cluster;
    std::unique_ptr<routing::Router> router =
        routing::makeRouter(ccfg.router, ccfg.routerConfig);
    if (ccfg.routerConfig.sloAdmission) {
        // SLO-critical tenants (multiplier < 1.0) bypass the base
        // policy for the fastest effective-rate replica; with the
        // default multiplier table the decorator never intercepts.
        router = std::make_unique<routing::SloAdmissionRouter>(
            std::move(router), spec_.tenancy.sloMultipliers);
    }
    cluster_ = std::make_unique<serving::DataParallelCluster>(
        sim_,
        [this](std::size_t replica) {
            return buildEngine(spec_, replica, pool_, sim_,
                               predictor_.get());
        },
        ccfg.replicas, std::move(router));
    if (ccfg.autoscale) {
        // replicaServiceRps rates the spec's base engine; per-replica
        // capacity factors divide each replica's nominal rate by it.
        cluster_->enableAutoscaler(
            ccfg.autoscaler, serving::nominalServiceRate(spec_.engine));
        // Default-policy scale-ups past the fleet list build the base
        // engine; pricing its boot for the boot-aware horizon needs
        // the config without building a replica.
        cluster_->setReferenceEngine(spec_.engine);
        if (ccfg.autoscaler.scaleUpPolicy !=
            routing::ScaleUpPolicy::Default) {
            // Catalogue for the hetero-aware scale-up policy: the
            // distinct per-replica fleet configs plus the base engine.
            std::vector<serving::EngineConfig> candidates;
            candidates.push_back(spec_.engine);
            for (const auto &engine : spec_.cluster.replicaEngines) {
                bool known = false;
                for (const auto &candidate : candidates)
                    known = known || candidate == engine;
                if (!known)
                    candidates.push_back(engine);
            }
            cluster_->setScaleUpCandidates(
                std::move(candidates),
                [this](const serving::EngineConfig &config) {
                    SystemSpec custom = spec_;
                    custom.engine = config;
                    custom.cluster.replicaEngines.clear();
                    return buildEngine(custom, 0, pool_, sim_,
                                       predictor_.get());
                });
        }
    }
    if (spec_.fabricEnabled()) {
        // Built only when the run needs it (migration on, or the
        // directory-backed router): non-fabric runs never construct a
        // fabric, so their event streams match the pre-fabric ones
        // byte-for-byte.
        fabric_ = std::make_unique<fabric::CacheFabric>(
            sim_, pool_ ? *pool_ : placeholderPool(), spec_.fabric);
        cluster_->attachFabric(fabric_.get());
    }
}

Runner::~Runner() = default;

RunReport
Runner::run(const workload::Trace &trace, sim::SimTime drainWindow)
{
    cluster_->submitTrace(trace);
    drainSimulation(sim_, trace, drainWindow);
    cluster_->finalize();

    // One isolated-latency table serves both the SLO and the slowdowns.
    serving::IsolatedLatency isolated(
        model::CostModel(spec_.engine.model, spec_.engine.gpu,
                         spec_.engine.tpDegree, spec_.engine.cost),
        pool_);
    RunReport report;
    if (!trace.empty()) {
        report.sloMultiplier = serving::kSloMultiplier;
        report.sloSeconds =
            sim::toSeconds(serving::computeSlo(trace, isolated));
    }
    {
        // The report takes the per-request data; the engines keep
        // their counters. The tenant pass reads the records before the
        // run's latency trackers are built from them, so its samples
        // and theirs are never live together.
        serving::EngineStats stats = cluster_->takeStats();
        fillTenantReports(stats, isolated, spec_.tenancy, report);
        report.stats = std::move(stats);
    }
    const auto &engines = cluster_->engines();
    if (engines.size() == 1) {
        const auto &link = engines.front()->pcieLink();
        report.pcieUtilisation = link.utilisation();
        report.pcieMeanBytesPerSec = link.bandwidthSeries().meanRate();
        report.pcieMaxBytesPerSec = link.bandwidthSeries().maxRate();
        report.pcieRateSeries = link.bandwidthSeries().ratePerSecond();
    }
    report.pcieBytes = cluster_->totalPcieBytes();
    report.pcieTransfers = cluster_->totalPcieTransfers();
    report.cacheHitRate = report.stats.cacheHitRate();
    for (const auto &engine : engines) {
        if (auto *cache = dynamic_cast<CacheManager *>(
                &engine->adapterManager())) {
            report.cacheEvictions += cache->evictions();
        }
        if (auto *mlq =
                dynamic_cast<MlqScheduler *>(&engine->scheduler())) {
            report.mlqQueues = std::max(report.mlqQueues,
                                        mlq->queueCount());
        }
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
    report.totalBootSeconds = sim::toSeconds(boot.totalBootTime);
    report.requestsDelayedByBoot = boot.requestsDelayedByBoot;
    if (fabric_ != nullptr) {
        report.fabricEnabled = true;
        report.fabricMigrations = fabric_->migrations();
        report.fabricPeerBytes = fabric_->peerBytes();
        report.fabricPeerTransfers = fabric_->peerTransfers();
    }

    obs::MetricsRegistry registry;
    fillRunMetrics(registry, *cluster_, report);
    report.metrics = registry.snapshot();
    report.eventHash = eventStreamHash(*cluster_, report);
    return report;
}

namespace {

/** Doubles by bit pattern: exact, locale- and printf-independent. */
std::uint64_t
doubleBits(double value)
{
    std::uint64_t out;
    static_assert(sizeof(out) == sizeof(value), "double is 64-bit");
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/** Event-stream sink that appends the text to a string. */
struct StringSink
{
    std::string &out;

    void write(const char *data, std::size_t size) { out.append(data, size); }
};

/** Event-stream sink that folds the text into an FNV-1a 64 hash. */
struct FnvSink
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void write(const char *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= static_cast<unsigned char>(data[i]);
            hash *= 0x100000001b3ull;
        }
    }
};

/**
 * One event-stream line, formatted in place with std::to_chars (the
 * same decimal text as an ostream in the classic locale) and handed to
 * a sink whole. The longest line is 15 fields of at most 20 digits
 * plus separators, well inside the buffer.
 */
class LineBuffer
{
  public:
    /** Integers in decimal (chars are text, so they are excluded). */
    template <typename Int,
              typename = std::enable_if_t<std::is_integral_v<Int> &&
                                          !std::is_same_v<Int, char>>>
    LineBuffer &operator<<(Int value)
    {
        const auto [ptr, ec] = std::to_chars(pos_, std::end(buf_), value);
        CHM_CHECK(ec == std::errc(), "event-stream line overflow");
        pos_ = ptr;
        return *this;
    }

    LineBuffer &operator<<(std::string_view text)
    {
        CHM_CHECK(text.size() <= static_cast<std::size_t>(
                                     std::end(buf_) - pos_),
                  "event-stream line overflow");
        pos_ = std::copy(text.begin(), text.end(), pos_);
        return *this;
    }

    /** Hand the line to the sink and start the next one. */
    template <typename Sink>
    void flush(Sink &sink)
    {
        sink.write(buf_, static_cast<std::size_t>(pos_ - buf_));
        pos_ = buf_;
    }

  private:
    char buf_[512];
    char *pos_ = buf_;
};

/** The canonical event stream (see canonicalEventStream), line by line
 * into `sink`. */
template <typename Sink>
void
writeEventStream(const RunReport &report, Sink &sink)
{
    LineBuffer line;
    line << "finished=" << report.stats.finished
         << " scale_ups=" << report.scaleUps
         << " scale_downs=" << report.scaleDowns
         << " peak=" << report.peakReplicas
         << " final_active=" << report.finalActiveReplicas << "\n";
    line.flush(sink);
    for (const auto &r : report.stats.records) {
        line << r.replica << "," << r.id << "," << r.arrival << ","
             << r.inputTokens << "," << r.outputTokens << "," << r.adapter
             << "," << r.rank << "," << r.ttft << "," << r.e2e << ","
             << r.queueDelay << "," << r.adapterStall << ","
             << doubleBits(r.wrs) << "," << r.queueIndex << ","
             << r.squashCount << "," << r.preemptCount << "\n";
        line.flush(sink);
    }
}

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    FnvSink sink;
    sink.write(text.data(), text.size());
    return sink.hash;
}

std::string
canonicalEventStream(const serving::DataParallelCluster & /*cluster*/,
                     const RunReport &report)
{
    std::string out;
    StringSink sink{out};
    writeEventStream(report, sink);
    return out;
}

std::uint64_t
eventStreamHash(const serving::DataParallelCluster & /*cluster*/,
                const RunReport &report)
{
    FnvSink sink;
    writeEventStream(report, sink);
    return sink.hash;
}

namespace {

constexpr int kReplicaBits = 16;

/**
 * Fill one latency field's histograms from the report's records.
 * Each histogram gets its values in ascending order, so its sums do
 * not depend on finish order. One radix sort of (value, replica) keys
 * orders the cluster's values and, as subsequences, every replica's.
 */
void
fillLatency(obs::MetricsRegistry &registry,
            const std::vector<serving::RequestRecord> &records,
            std::size_t replicas, const serving::LatencyField &metric)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(records.size());
    for (const auto &r : records) {
        if (metric.adaptersOnly && r.adapter == model::kNoAdapter)
            continue;
        const sim::SimTime value = r.*metric.field;
        CHM_CHECK(value >= 0 && value < (sim::SimTime{1} << 47),
                  "latency " << metric.name << " out of range: " << value);
        CHM_CHECK(r.replica >= 0 &&
                      static_cast<std::size_t>(r.replica) < replicas,
                  "record of unknown replica " << r.replica);
        keys.push_back(static_cast<std::uint64_t>(value) << kReplicaBits |
                       static_cast<std::uint64_t>(r.replica));
    }
    sim::sortKeys(keys);
    std::vector<obs::Histogram *> perReplica(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
        perReplica[i] = &registry.histogram(
            "replica" + std::to_string(i) + ".latency." + metric.name);
    }
    // The load stall has per-replica histograms only.
    obs::Histogram *cluster =
        metric.tracker != &serving::RunStats::loadStall
            ? &registry.histogram(std::string("cluster.latency.") +
                                  metric.name)
            : nullptr;
    constexpr std::uint64_t kReplicaMask = (1u << kReplicaBits) - 1;
    for (const std::uint64_t key : keys) {
        const double v =
            metric.convert(static_cast<sim::SimTime>(key >> kReplicaBits));
        perReplica[key & kReplicaMask]->add(v);
        if (cluster != nullptr)
            cluster->add(v);
    }
}

} // namespace

void
fillRunMetrics(obs::MetricsRegistry &registry,
               const serving::DataParallelCluster &cluster,
               const RunReport &report)
{
    const auto &engines = cluster.engines();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const std::string prefix = "replica" + std::to_string(i) + ".";
        const serving::EngineStats &s = engines[i]->stats();
        auto count = [&](const char *name, std::int64_t value) {
            registry.counter(prefix + name).inc(value);
        };
        count("requests.submitted", s.submitted);
        count("requests.finished", s.finished);
        count("requests.preemptions", s.preemptions);
        count("requests.squashes", s.squashes);
        count("requests.bypasses", s.bypasses);
        count("engine.iterations", s.iterations);
        count("engine.prefill_tokens", s.prefillTokens);
        count("engine.decode_tokens", s.decodeTokens);
        registry.gauge(prefix + "engine.busy_seconds")
            .set(sim::toSeconds(s.busyTime));
        registry.gauge(prefix + "engine.mean_batch_size")
            .set(s.iterations
                     ? static_cast<double>(s.batchSizeAccum) /
                           static_cast<double>(s.iterations)
                     : 0.0);
        if (i < report.perReplicaServiceRate.size()) {
            registry.gauge(prefix + "engine.service_rate_rps")
                .set(report.perReplicaServiceRate[i]);
        }
        count("cache.hits", s.adapterHits);
        count("cache.misses", s.adapterMisses);
        registry.gauge(prefix + "cache.hit_rate").set(s.cacheHitRate());
        if (const auto *cache = dynamic_cast<const CacheManager *>(
                &engines[i]->adapterManager())) {
            count("cache.evictions", cache->evictions());
            // A registry name cannot be both a leaf and a prefix, so the
            // causes sit beside the total rather than under it.
            count("cache.evictions_by_cause.demand",
                  cache->demandEvictions());
            count("cache.evictions_by_cause.prefetch",
                  cache->prefetchEvictions());
            count("cache.evictions_by_cause.kv_shrink",
                  cache->kvShrinkEvictions());
            count("cache.evictions_by_cause.peer_admit",
                  cache->peerAdmitEvictions());
            count("cache.demand_loads", cache->demandLoads());
            count("cache.queued_loads", cache->queuedLoads());
            count("cache.predictive_loads", cache->predictiveLoads());
            count("cache.peer_loads", cache->peerLoads());
        }
        count("pcie.bytes", engines[i]->pcieLink().totalBytes());
        count("pcie.transfers", engines[i]->pcieLink().totalTransfers());
    }
    for (const serving::LatencyField &metric : serving::kLatencyFields)
        fillLatency(registry, report.stats.records, engines.size(), metric);

    const serving::EngineStats &total = report.stats;
    registry.counter("cluster.requests.submitted").inc(total.submitted);
    registry.counter("cluster.requests.finished").inc(total.finished);
    registry.counter("cluster.requests.preemptions")
        .inc(total.preemptions);
    registry.counter("cluster.requests.squashes").inc(total.squashes);
    registry.counter("cluster.requests.bypasses").inc(total.bypasses);
    registry.gauge("cluster.cache.hit_rate").set(report.cacheHitRate);
    registry.counter("cluster.cache.evictions")
        .inc(report.cacheEvictions);
    registry.counter("cluster.pcie.bytes").inc(report.pcieBytes);
    registry.counter("cluster.pcie.transfers").inc(report.pcieTransfers);
    registry.counter("cluster.scaling.scale_ups").inc(report.scaleUps);
    registry.counter("cluster.scaling.scale_downs")
        .inc(report.scaleDowns);
    registry.counter("cluster.scaling.boots").inc(report.bootEvents);
    registry.gauge("cluster.scaling.boot_seconds")
        .set(report.totalBootSeconds);
    registry.counter("cluster.scaling.requests_delayed_by_boot")
        .inc(report.requestsDelayedByBoot);
    registry.counter("cluster.replicas.peak")
        .inc(static_cast<std::int64_t>(report.peakReplicas));
    registry.counter("cluster.replicas.final_active")
        .inc(static_cast<std::int64_t>(report.finalActiveReplicas));
    if (report.fabricEnabled) {
        registry.counter("fabric.migrations")
            .inc(report.fabricMigrations);
        registry.counter("fabric.peer_bytes").inc(report.fabricPeerBytes);
        registry.counter("fabric.peer_transfers")
            .inc(report.fabricPeerTransfers);
    }

    // Tenancy groups: one "tenant.<id>.*" slice per tenant with
    // finished requests, plus the fleet-wide fairness index.
    registry.gauge("cluster.fairness.jain_index")
        .set(report.fairnessIndex);
    if (report.sloAttainment >= 0.0) {
        registry.gauge("cluster.slo.seconds").set(report.sloSeconds);
        registry.gauge("cluster.slo.attainment")
            .set(report.sloAttainment);
    }
    for (const auto &t : report.tenants) {
        const std::string prefix =
            "tenant." + std::to_string(t.tenant) + ".";
        registry.counter(prefix + "requests.finished").inc(t.finished);
        registry.gauge(prefix + "latency.p50_ttft_s")
            .set(t.p50TtftSeconds);
        registry.gauge(prefix + "latency.p99_ttft_s")
            .set(t.p99TtftSeconds);
        registry.gauge(prefix + "latency.p50_e2e_s").set(t.p50E2eSeconds);
        registry.gauge(prefix + "latency.p99_e2e_s").set(t.p99E2eSeconds);
        registry.gauge(prefix + "slowdown.mean").set(t.meanSlowdown);
        registry.gauge(prefix + "slowdown.p99").set(t.p99Slowdown);
        if (t.sloAttainment >= 0.0) {
            registry.gauge(prefix + "slo.seconds").set(t.sloSeconds);
            registry.gauge(prefix + "slo.attainment")
                .set(t.sloAttainment);
        }
    }
}

RunReport
runSpec(const SystemSpec &spec, const model::AdapterPool *pool,
        const workload::Trace &trace)
{
    Runner runner(spec, pool);
    return runner.run(trace);
}

RunReport
runSystem(const std::string &name,
          const std::function<void(SystemSpec &)> &configure,
          const model::AdapterPool *pool, const workload::Trace &trace)
{
    SystemSpec spec = SystemRegistry::global().lookup(name);
    if (configure)
        configure(spec);
    return runSpec(spec, pool, trace);
}

} // namespace chameleon::core
