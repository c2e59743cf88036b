/**
 * @file
 * Observability tests (obs/trace_recorder.h, obs/metrics_registry.h):
 *  - recorder output is valid Chrome trace-event JSON (parses with
 *    simkit/json, has the expected envelope and event fields);
 *  - span nesting is well-formed: sync B/E balance per (pid, tid) and
 *    async b/e pairs match by (category, id, name) with end >= begin —
 *    checked on a hand-built recorder and on a real cluster run;
 *  - determinism: two same-seed runs produce byte-identical trace
 *    JSON and metrics snapshots;
 *  - observation neutrality: attaching a recorder leaves the canonical
 *    per-request record stream bit-identical to an untraced run (the
 *    golden-trace contract);
 *  - MetricsRegistry: hierarchical snapshot nesting, dump -> parse ->
 *    dump round-trip, histogram stats, RunReport::metrics consistency.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "chameleon/cache_manager.h"
#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "simkit/json.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

constexpr std::uint64_t kSeed = 1234;

/** Small clustered autoscaled hetero scenario (golden-suite shaped). */
core::SystemSpec
smallClusterSpec()
{
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.router = routing::RouterPolicy::AdapterAffinity;
    spec.cluster.routerConfig.seed = kSeed;
    spec.predictor.seed = kSeed;
    spec.cluster.replicas = 2;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    spec.cluster.replicaEngines = {fast, spec.engine};
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 1;
    spec.cluster.autoscaler.maxReplicas = 4;
    spec.cluster.autoscaler.replicaServiceRps = 6.0;
    spec.cluster.autoscaler.downCooldownPeriods = 2;
    return spec;
}

workload::Trace
smallTrace(const model::AdapterPool &pool)
{
    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 30.0;
    wl.numAdapters = 40;
    wl.seed = kSeed;
    wl.bursts.push_back(workload::Burst{10.0, 20.0, 3.0});
    workload::TraceGenerator gen(wl, &pool);
    return gen.generate();
}

/** Per-request record stream, the golden-suite canonical form. */
std::string
recordStream(const core::RunReport &report)
{
    std::ostringstream os;
    for (const auto &r : report.stats.records) {
        os << r.replica << ',' << r.id << ',' << r.arrival << ',' << r.ttft
           << ',' << r.e2e << ',' << r.queueDelay << ',' << r.adapterStall
           << ',' << r.squashCount << ',' << r.preemptCount << '\n';
    }
    return os.str();
}

struct TracedRun
{
    std::string traceJson;
    std::string metricsJson;
    std::string records;
    core::RunReport report;
};

TracedRun
runTraced(bool attachRecorder)
{
    model::AdapterPool pool(model::llama7B(), 40);
    const auto trace = smallTrace(pool);
    core::Runner runner(smallClusterSpec(), &pool);
    obs::TraceRecorder recorder;
    if (attachRecorder)
        runner.setTraceRecorder(&recorder);
    TracedRun out;
    out.report = runner.run(trace);
    out.traceJson = recorder.toJson();
    out.metricsJson = out.report.metrics.dump();
    out.records = recordStream(out.report);
    return out;
}

/**
 * Well-formedness over a parsed trace document: sync B/E stacks
 * balance per (pid, tid), async b/e events pair up by (category, id,
 * name) in order with end.ts >= begin.ts, and every event carries the
 * envelope fields Perfetto needs.
 */
void
checkWellFormed(const sim::JsonValue &doc)
{
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::map<std::pair<std::int64_t, std::int64_t>, int> syncDepth;
    std::map<std::tuple<std::string, std::int64_t, std::string>, int>
        asyncOpen;
    for (const auto &e : events->items()) {
        ASSERT_TRUE(e.isObject());
        const auto *ph = e.find("ph");
        const auto *pid = e.find("pid");
        const auto *tid = e.find("tid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        ASSERT_NE(tid, nullptr);
        const std::string phase = ph->asString();
        if (phase == "M")
            continue; // metadata carries no ts
        const auto *ts = e.find("ts");
        ASSERT_NE(ts, nullptr) << "phase " << phase << " without ts";
        EXPECT_GE(ts->asInt(), 0);
        const auto key = std::make_pair(pid->asInt(), tid->asInt());
        if (phase == "B") {
            ++syncDepth[key];
        } else if (phase == "E") {
            EXPECT_GT(syncDepth[key], 0) << "E without matching B";
            --syncDepth[key];
        } else if (phase == "X") {
            const auto *dur = e.find("dur");
            ASSERT_NE(dur, nullptr);
            EXPECT_GE(dur->asInt(), 0);
        } else if (phase == "b" || phase == "e") {
            const auto *cat = e.find("cat");
            const auto *id = e.find("id");
            const auto *name = e.find("name");
            ASSERT_NE(cat, nullptr);
            ASSERT_NE(id, nullptr);
            ASSERT_NE(name, nullptr);
            const auto akey = std::make_tuple(
                cat->asString(), id->asInt(), name->asString());
            if (phase == "b") {
                ++asyncOpen[akey];
            } else {
                EXPECT_GT(asyncOpen[akey], 0)
                    << "async end without begin: " << name->asString()
                    << " id " << id->asInt();
                --asyncOpen[akey];
            }
        } else {
            EXPECT_TRUE(phase == "i" || phase == "C")
                << "unexpected phase " << phase;
        }
    }
    for (const auto &[key, depth] : syncDepth)
        EXPECT_EQ(depth, 0) << "unbalanced B/E on pid " << key.first;
    for (const auto &[key, open] : asyncOpen)
        EXPECT_EQ(open, 0)
            << "unclosed async span " << std::get<2>(key);
}

sim::JsonValue
parseOrDie(const std::string &text)
{
    std::string error;
    auto doc = sim::parseJson(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc.value_or(sim::JsonValue{});
}

} // namespace

TEST(TraceRecorder, HandBuiltDocumentParsesAndNests)
{
    obs::TraceRecorder rec;
    rec.processName(obs::kClusterPid, "cluster");
    rec.processName(obs::pidForReplica(0), "replica0");
    rec.threadName(obs::pidForReplica(0), obs::Lane::Engine, "engine");
    rec.begin(obs::pidForReplica(0), obs::Lane::Engine, "iteration", 10,
              {{"batch", 4}});
    rec.instant(obs::pidForReplica(0), obs::Lane::Engine, "preempt", 15,
                {{"request", 7}});
    rec.end(obs::pidForReplica(0), obs::Lane::Engine, 20);
    rec.complete(obs::pidForReplica(0), obs::Lane::Engine, "boot", 0, 30);
    rec.counter(obs::pidForReplica(0), "memory_bytes", 25,
                {{"kv", 1024}, {"used", 2048}});
    rec.asyncBegin(obs::pidForReplica(0), "request", 7, "request", 5,
                   {{"input", 128}});
    rec.asyncBegin(obs::pidForReplica(0), "request", 7, "prefill", 12);
    rec.asyncEnd(obs::pidForReplica(0), "request", 7, "prefill", 18);
    rec.asyncEnd(obs::pidForReplica(0), "request", 7, "request", 40);
    EXPECT_EQ(rec.size(), 9u); // meta events not counted

    const auto doc = parseOrDie(rec.toJson());
    const auto *unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->asString(), "ms");
    checkWellFormed(doc);

    // Metadata first, then events in emission order.
    const auto &events = doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), 12u);
    EXPECT_EQ(events[0].find("ph")->asString(), "M");
    EXPECT_EQ(events[3].find("name")->asString(), "iteration");
    EXPECT_EQ(events[3].find("args")->find("batch")->asInt(), 4);
}

TEST(TraceRecorder, RealRunProducesWellFormedTrace)
{
    const auto run = runTraced(true);
    const auto doc = parseOrDie(run.traceJson);
    checkWellFormed(doc);

    // The instrumented event families all fire on this scenario.
    const auto &events = doc.find("traceEvents")->items();
    std::map<std::string, int> names;
    for (const auto &e : events)
        if (const auto *n = e.find("name"))
            ++names[n->asString()];
    EXPECT_GT(names["dispatch"], 0);
    EXPECT_GT(names["autoscale_eval"], 0);
    EXPECT_GT(names["request"], 0);
    EXPECT_GT(names["prefill"], 0);
    EXPECT_GT(names["decode"], 0);
    EXPECT_GT(names["memory_bytes"], 0);
    EXPECT_EQ(names["request"],
              2 * static_cast<int>(run.report.stats.finished));
}

TEST(TraceRecorder, SameSeedRunsAreByteIdentical)
{
    const auto a = runTraced(true);
    const auto b = runTraced(true);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsJson, b.metricsJson);
}

TEST(TraceRecorder, AttachingRecorderDoesNotPerturbTheRun)
{
    const auto untraced = runTraced(false);
    const auto traced = runTraced(true);
    EXPECT_EQ(untraced.records, traced.records);
    EXPECT_EQ(untraced.report.stats.finished,
              traced.report.stats.finished);
    EXPECT_EQ(untraced.report.scaleUps, traced.report.scaleUps);
    EXPECT_EQ(untraced.metricsJson, traced.metricsJson);
}

TEST(MetricsRegistry, SnapshotNestsDottedNames)
{
    obs::MetricsRegistry reg;
    reg.counter("replica0.cache.hits").inc(3);
    reg.counter("replica0.cache.misses").inc(1);
    reg.gauge("replica0.cache.hit_rate").set(0.75);
    reg.counter("cluster.requests.finished").inc(42);

    const auto snap = reg.snapshot();
    const auto *cache = snap.find("replica0")->find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("hits")->asInt(), 3);
    EXPECT_EQ(cache->find("misses")->asInt(), 1);
    EXPECT_DOUBLE_EQ(cache->find("hit_rate")->asNumber(), 0.75);
    EXPECT_EQ(snap.find("cluster")->find("requests")->find("finished")
                  ->asInt(),
              42);
}

TEST(MetricsRegistry, SnapshotRoundTripsThroughParse)
{
    obs::MetricsRegistry reg;
    reg.counter("a.b.c").inc(7);
    reg.gauge("a.b.g").set(1.5);
    auto &h = reg.histogram("a.h");
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i));

    const std::string dumped = reg.snapshot().dump();
    const auto parsed = parseOrDie(dumped);
    EXPECT_EQ(parsed.dump(), dumped);
}

TEST(MetricsRegistry, HistogramStats)
{
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    // Log2 buckets: quantiles are approximate, within one power of two.
    EXPECT_GE(h.quantile(0.5), 250.0);
    EXPECT_LE(h.quantile(0.5), 1000.0);
    EXPECT_GE(h.quantile(0.99), 500.0);
    EXPECT_LE(h.quantile(0.99), 1000.0);
}

TEST(MetricsRegistry, RunReportMetricsMatchTheStats)
{
    const auto run = runTraced(false);
    const auto &m = run.report.metrics;
    const auto *cluster = m.find("cluster");
    ASSERT_NE(cluster, nullptr);
    EXPECT_EQ(cluster->find("requests")->find("finished")->asInt(),
              run.report.stats.finished);
    EXPECT_EQ(cluster->find("replicas")->find("peak")->asInt(),
              static_cast<std::int64_t>(run.report.peakReplicas));
    // Per-replica finished counts agree with the report's vector.
    for (std::size_t i = 0; i < run.report.perReplicaFinished.size();
         ++i) {
        const auto *replica =
            m.find("replica" + std::to_string(i));
        ASSERT_NE(replica, nullptr);
        EXPECT_EQ(replica->find("requests")->find("finished")->asInt(),
                  run.report.perReplicaFinished[i]);
    }
}

/** The cache's eviction counters by cause reach the metrics snapshot,
 * on a run whose KV growth squeezes the cache (a 30 GiB workspace and
 * an under-predicting length predictor, the preemption pin's setup). */
TEST(MetricsRegistry, RunReportMetricsCountEvictionsByCause)
{
    model::AdapterPool pool(model::llama7B(), 40);
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.engine.workspacePerGpu = 30ll << 30;
    spec.predictor.accuracy = 0.2;
    spec.predictor.seed = kSeed;
    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = pool.size();
    wl.adapterPopularity = workload::Popularity::Uniform;
    wl.seed = kSeed;
    workload::TraceGenerator gen(wl, &pool);
    core::Runner runner(spec, &pool);
    const auto report = runner.run(gen.generate());

    const auto &cache = dynamic_cast<const core::CacheManager &>(
        runner.engine().adapterManager());
    EXPECT_GT(cache.evictions(), 0);
    const auto *causes = report.metrics.find("replica0")
                             ->find("cache")
                             ->find("evictions_by_cause");
    ASSERT_NE(causes, nullptr);
    EXPECT_EQ(causes->find("demand")->asInt(), cache.demandEvictions());
    EXPECT_EQ(causes->find("prefetch")->asInt(), cache.prefetchEvictions());
    EXPECT_EQ(causes->find("kv_shrink")->asInt(),
              cache.kvShrinkEvictions());
}
