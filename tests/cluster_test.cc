/**
 * @file
 * Tests for multi-GPU serving: tensor-parallel engines and the
 * data-parallel cluster with its two-level scheduler (§4.4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "chameleon/system.h"
#include "fabric/cache_fabric.h"
#include "routing/autoscaler.h"
#include "routing/router.h"
#include "predict/length_predictor.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/cluster.h"
#include "serving/fifo_scheduler.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/distributions.h"
#include "simkit/rng.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

core::SystemSpec
specFor(const std::string &system, const model::ModelSpec &model,
        const model::GpuSpec &gpu, int tpDegree = 1)
{
    auto spec = core::SystemRegistry::global().lookup(system);
    spec.engine.model = model;
    spec.engine.gpu = gpu;
    spec.engine.tpDegree = tpDegree;
    return spec;
}

} // namespace

TEST(TensorParallel, EngineAggregatesGpuMemory)
{
    model::AdapterPool pool(model::llama70B(), 10);
    core::Runner runner(
        specFor("chameleon", model::llama70B(), model::a100(80), 4),
        &pool);
    EXPECT_EQ(runner.engine().memory().capacity(),
              4ll * 80 * 1024 * 1024 * 1024);
}

TEST(TensorParallel, HigherTpShortensPrefillIterations)
{
    model::AdapterPool pool(model::llama70B(), 10);
    auto wl = workload::splitwiseLike();
    wl.rps = 2.0;
    wl.durationSeconds = 20.0;
    wl.numAdapters = 10;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    auto run_tp = [&](int tp) {
        return core::runSpec(
            specFor("slora", model::llama70B(), model::a100(80), tp),
            &pool, trace);
    };
    // Llama-70B does not fit a single 80 GiB GPU: compare TP2 vs TP4.
    const auto tp2 = run_tp(2);
    const auto tp4 = run_tp(4);
    EXPECT_EQ(tp2.stats.finished, tp4.stats.finished);
    // More GPUs -> faster decode iterations.
    EXPECT_LT(tp4.stats.tbt.p50(), tp2.stats.tbt.p50());
}

namespace {

std::unique_ptr<serving::ServingEngine>
makeEngine(sim::Simulator &simulator, const model::AdapterPool &pool,
           predict::LengthPredictor &predictor)
{
    serving::EngineConfig cfg;
    cfg.model = model::llama7B();
    cfg.gpu = model::a40();
    auto engine = std::make_unique<serving::ServingEngine>(
        simulator, cfg, &pool, std::make_unique<serving::FifoScheduler>(),
        &predictor);
    engine->setAdapterManager(
        std::make_unique<serving::SLoraAdapterManager>(
            pool, engine->memory(), engine->pcieLink()));
    return engine;
}

} // namespace

TEST(DataParallel, SpreadsLoadAcrossEngines)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        4,
        routing::RouterPolicy::JoinShortestQueue);

    auto wl = workload::splitwiseLike();
    wl.rps = 12.0;
    wl.durationSeconds = 30.0;
    wl.numAdapters = 20;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();
    cluster.submitTrace(trace);
    simulator.run();
    cluster.finalize();

    std::int64_t total = 0;
    for (const auto &engine : cluster.engines()) {
        const auto finished = engine->stats().finished;
        EXPECT_GT(finished, 0);
        // JSQ keeps the shares roughly balanced.
        EXPECT_LT(finished,
                  static_cast<std::int64_t>(trace.size()) / 2);
        total += finished;
    }
    EXPECT_EQ(total, static_cast<std::int64_t>(trace.size()));
    EXPECT_EQ(cluster.mergedStats().records.size(), trace.size());
}

TEST(DataParallel, RoundRobinAlternates)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        2,
        routing::RouterPolicy::RoundRobin);
    workload::Trace trace;
    for (int i = 0; i < 10; ++i) {
        trace.append(workload::Request{i, sim::fromSeconds(0.1 * i), 16, 4,
                                       static_cast<model::AdapterId>(i % 20)});
    }
    cluster.submitTrace(trace);
    simulator.run();
    cluster.finalize();
    EXPECT_EQ(cluster.engines()[0]->stats().finished, 5);
    EXPECT_EQ(cluster.engines()[1]->stats().finished, 5);
}

TEST(DataParallel, AGrownClusterKeepsItsDirectPathRecords)
{
    // One fixed replica serves its first trace directly, so the engine
    // holds those records; growing the cluster moves them into the
    // cluster's store ahead of the dispatched trace's.
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        1, routing::RouterPolicy::RoundRobin);
    const auto requests = [](int first, int count, double start) {
        workload::Trace trace;
        for (int i = first; i < first + count; ++i) {
            trace.append(workload::Request{
                i, sim::fromSeconds(start + 0.5 * (i - first)), 16, 4,
                static_cast<model::AdapterId>(i % 20)});
        }
        return trace;
    };
    const auto direct = requests(0, 4, 0.0);
    cluster.submitTrace(direct);
    simulator.run();
    EXPECT_EQ(cluster.engines()[0]->stats().records.size(), 4u);

    cluster.resize(2);
    EXPECT_TRUE(cluster.engines()[0]->stats().records.empty());
    const auto dispatched = requests(4, 6, 10.0);
    cluster.submitTrace(dispatched);
    simulator.run();
    cluster.finalize();

    const auto finished = cluster.perReplicaFinished();
    ASSERT_EQ(finished.size(), 2u);
    EXPECT_GT(finished[0], 4);
    EXPECT_GT(finished[1], 0);
    const auto merged = cluster.mergedStats();
    ASSERT_EQ(merged.records.size(), 10u);
    // Replica by replica, each in finish order (here, id order).
    for (std::size_t i = 0; i < merged.records.size(); ++i) {
        const auto &rec = merged.records[i];
        EXPECT_EQ(rec.replica,
                  i < static_cast<std::size_t>(finished[0]) ? 0 : 1)
            << "record " << i;
        if (i > 0 && rec.replica == merged.records[i - 1].replica) {
            EXPECT_LT(merged.records[i - 1].id, rec.id) << "record " << i;
        }
    }
    EXPECT_EQ(merged.records.front().id, 0);
}

TEST(DataParallel, AffinityPartitionsAdaptersAcrossReplicas)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 40);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        4, routing::RouterPolicy::AdapterAffinity);

    // Two steady RPS over four replicas: no owner's queue reaches the
    // spill bound (the cluster-mean queue plus 3), so the ring alone
    // places every request.
    auto wl = workload::splitwiseLike();
    wl.rps = 2.0;
    wl.burstMultiplier = 1.0;
    wl.durationSeconds = 80.0;
    wl.numAdapters = 40;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();
    cluster.submitTrace(trace);
    simulator.run();
    cluster.finalize();

    // Without spillover every adapter is served by exactly one replica.
    const auto merged = cluster.mergedStats();
    std::map<model::AdapterId, std::set<std::int32_t>> replicasOf;
    for (const auto &rec : merged.records) {
        if (rec.adapter != model::kNoAdapter)
            replicasOf[rec.adapter].insert(rec.replica);
    }
    EXPECT_GT(replicasOf.size(), 0u);
    for (const auto &[adapter, replicas] : replicasOf)
        EXPECT_EQ(replicas.size(), 1u) << "adapter " << adapter;
    EXPECT_EQ(merged.records.size(), trace.size());
    EXPECT_EQ(merged.finished, static_cast<std::int64_t>(trace.size()));
}

TEST(DataParallel, AffinityRoutingReducesAdapterPcieTraffic)
{
    // Chameleon replicas via the core facade: identical skewed trace,
    // affinity vs round-robin dispatch.
    model::AdapterPool pool(model::llama7B(), 100);
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = 4;

    auto wl = workload::splitwiseLike();
    wl.rps = 24.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 100;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    spec.cluster.router = routing::RouterPolicy::RoundRobin;
    const auto rr = core::runSpec(spec, &pool, trace);
    spec.cluster.router = routing::RouterPolicy::AdapterAffinity;
    const auto affinity = core::runSpec(spec, &pool, trace);

    EXPECT_EQ(rr.stats.finished, affinity.stats.finished);
    EXPECT_LT(affinity.pcieTransfers, rr.pcieTransfers);
    EXPECT_GT(affinity.cacheHitRate, rr.cacheHitRate);
}

TEST(Heterogeneous, ExplicitHomogeneousOverridesMatchTheImplicitFleet)
{
    // Filling cluster.replicaEngines with copies of the base engine
    // must be indistinguishable from leaving it empty — the resolved
    // per-replica configs are identical, so the whole simulation is.
    model::AdapterPool pool(model::llama7B(), 40);
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = 3;
    spec.cluster.router = routing::RouterPolicy::AdapterAffinityDirectory;

    auto wl = workload::splitwiseLike();
    wl.rps = 18.0;
    wl.durationSeconds = 40.0;
    wl.numAdapters = 40;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    const auto implicit = core::runSpec(spec, &pool, trace);
    spec.cluster.replicaEngines = {spec.engine, spec.engine, spec.engine};
    const auto explicitFleet = core::runSpec(spec, &pool, trace);

    EXPECT_EQ(implicit.stats.ttft.sorted(),
              explicitFleet.stats.ttft.sorted());
    EXPECT_EQ(implicit.pcieBytes, explicitFleet.pcieBytes);
    EXPECT_EQ(implicit.perReplicaFinished,
              explicitFleet.perReplicaFinished);
    EXPECT_EQ(implicit.perReplicaServiceRate,
              explicitFleet.perReplicaServiceRate);
}

TEST(Heterogeneous, ReplicasBuildFromTheirOwnEngineConfigs)
{
    model::AdapterPool pool(model::llama7B(), 20);
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = 2;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(80);
    spec.cluster.replicaEngines = {fast, spec.engine};

    core::Runner runner(spec, &pool);
    const auto &engines = runner.cluster().engines();
    ASSERT_EQ(engines.size(), 2u);
    EXPECT_EQ(engines[0]->config().gpu.name, "a100-80g");
    EXPECT_EQ(engines[1]->config().gpu.name, "a40-48g");
    // More memory on the A100 replica: capacity reflects its GPU.
    EXPECT_GT(engines[0]->memory().capacity(),
              engines[1]->memory().capacity());
    // The nominal service rates order the replicas by hardware, and
    // the cluster's routing weights are the max-normalised ratios.
    const auto &rates = runner.cluster().serviceRates();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_GT(rates[0], rates[1]);
    EXPECT_DOUBLE_EQ(runner.cluster().serviceWeight(0), 1.0);
    EXPECT_GT(runner.cluster().serviceWeight(1), 0.0);
    EXPECT_LT(runner.cluster().serviceWeight(1), 1.0);
}

TEST(Heterogeneous, CapacityAwareRoutingFollowsTheFastReplicas)
{
    model::AdapterPool pool(model::llama7B(), 50);
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = 2;
    spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    spec.cluster.replicaEngines = {fast, spec.engine};

    auto wl = workload::splitwiseLike();
    wl.rps = 14.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 50;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    const auto report = core::runSpec(spec, &pool, trace);
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    ASSERT_EQ(report.perReplicaFinished.size(), 2u);
    ASSERT_EQ(report.perReplicaServiceRate.size(), 2u);
    EXPECT_GT(report.perReplicaServiceRate[0],
              report.perReplicaServiceRate[1]);
    // Weighted JSQ sends the larger share to the faster replica.
    EXPECT_GT(report.perReplicaFinished[0], report.perReplicaFinished[1]);
}

TEST(DataParallel, DrainedReplicaFinishesInFlightWorkWithoutNewDispatches)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        2,
        routing::RouterPolicy::RoundRobin);

    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 40.0;
    wl.numAdapters = 20;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();
    cluster.submitTrace(trace);

    // Let both replicas accumulate in-flight work, then drain one.
    simulator.runUntil(10 * sim::kSec);
    ASSERT_GT(cluster.engines()[1]->outstanding(), 0);
    cluster.resize(1);
    EXPECT_EQ(cluster.activeReplicas(), 1u);
    EXPECT_EQ(cluster.replicaState(1),
              serving::DataParallelCluster::ReplicaState::Drained);

    simulator.run();
    cluster.finalize();
    // Nothing in flight was dropped...
    const auto merged = cluster.mergedStats();
    EXPECT_EQ(merged.finished, static_cast<std::int64_t>(trace.size()));
    EXPECT_GT(cluster.engines()[1]->stats().finished, 0);
    // ...and the drained replica received no dispatch after the drain.
    for (const auto &record : merged.records) {
        if (record.replica == 1) {
            EXPECT_LE(record.arrival, 10 * sim::kSec);
        }
    }
}

TEST(DataParallel, ScaleUpBootsBeforeServingAndResumesAfterMidBootDrain)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        1,
        routing::RouterPolicy::JoinShortestQueue);

    // An inert autoscaler: no forecast, a queue that stays under the
    // high watermark at 3 RPS (at most 14 per replica, against 24) and
    // a scale-down streak it never completes. The test drives scaling through resize() so every
    // transition happens at a chosen instant.
    routing::AutoscalerConfig acfg;
    acfg.minReplicas = 1;
    acfg.maxReplicas = 4;
    acfg.downCooldownPeriods = 1 << 20;
    acfg.bootMs = 60000.0; // + weight-load: deadline in (60 s, 75 s)
    cluster.enableAutoscaler(acfg);

    auto wl = workload::splitwiseLike();
    wl.rps = 3.0;
    wl.durationSeconds = 30.0;
    wl.numAdapters = 20;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();
    cluster.submitTrace(trace);

    using State = serving::DataParallelCluster::ReplicaState;
    simulator.runUntil(5 * sim::kSec);
    cluster.resize(2);
    // The new replica is provisioned but not dispatchable: it boots.
    EXPECT_EQ(cluster.activeReplicas(), 2u);
    EXPECT_EQ(cluster.bootingReplicas(), 1u);
    EXPECT_EQ(cluster.replicaCount(), 1u);
    EXPECT_EQ(cluster.replicaState(1), State::Booting);
    EXPECT_EQ(cluster.bootStats().boots, 1);
    EXPECT_GT(cluster.bootStats().totalBootTime, 60 * sim::kSec);

    // Drain it mid-boot...
    simulator.runUntil(10 * sim::kSec);
    cluster.resize(1);
    EXPECT_EQ(cluster.replicaState(1), State::Drained);
    // ...and reactivate before the deadline: the boot resumes (no
    // second boot is paid) instead of restarting.
    simulator.runUntil(20 * sim::kSec);
    cluster.resize(2);
    EXPECT_EQ(cluster.replicaState(1), State::Booting);
    EXPECT_EQ(cluster.bootStats().boots, 1);

    // Requests dispatched while it boots are counted as delayed.
    simulator.runUntil(30 * sim::kSec);
    EXPECT_GT(cluster.bootStats().requestsDelayedByBoot, 0);

    // At the deadline it joins the dispatchable set.
    simulator.runUntil(90 * sim::kSec);
    EXPECT_EQ(cluster.replicaState(1), State::Active);
    EXPECT_EQ(cluster.bootingReplicas(), 0u);
    EXPECT_EQ(cluster.replicaCount(), 2u);

    // A later reactivation after the weights are loaded is instant.
    cluster.resize(1);
    cluster.resize(2);
    EXPECT_EQ(cluster.replicaState(1), State::Active);
    EXPECT_EQ(cluster.bootStats().boots, 1);

    simulator.run();
    cluster.finalize();
    EXPECT_EQ(cluster.mergedStats().finished,
              static_cast<std::int64_t>(trace.size()));
}

TEST(DataParallel, MinReplicaClampProvisionsWarmInitialCapacity)
{
    // enableAutoscaler's clamp up to minReplicas is initial capacity
    // (the cluster exists before the trace begins): those builds must
    // not boot even with the cold-start model enabled — only
    // simulation-time scale-ups pay it.
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        1,
        routing::RouterPolicy::JoinShortestQueue);

    routing::AutoscalerConfig acfg;
    acfg.minReplicas = 3;
    acfg.maxReplicas = 4;
    acfg.bootMs = 60000.0;
    cluster.enableAutoscaler(acfg);
    EXPECT_EQ(cluster.activeReplicas(), 3u);
    EXPECT_EQ(cluster.replicaCount(), 3u); // dispatchable immediately
    EXPECT_EQ(cluster.bootingReplicas(), 0u);
    EXPECT_EQ(cluster.bootStats().boots, 0);
}

TEST(ColdStart, BootTimeIsWeightLoadPlusConstantAndZeroWhenDisabled)
{
    serving::EngineConfig cfg;
    cfg.model = model::llama7B();
    cfg.gpu = model::a40();

    const serving::ColdStartModel disabled(0.0);
    EXPECT_FALSE(disabled.enabled());
    EXPECT_EQ(disabled.bootTime(cfg), 0);

    const serving::ColdStartModel enabled(5000.0);
    EXPECT_TRUE(enabled.enabled());
    // Weight load dominates: ~13 GB over a ~10.5 GB/s link is over a
    // second on top of the 5 s constant.
    EXPECT_GT(enabled.bootTime(cfg), sim::fromMillis(6000.0));
    EXPECT_EQ(enabled.bootTime(cfg),
              enabled.weightLoadTime(cfg) + sim::fromMillis(5000.0));

    // A bigger model boots slower on the same link.
    serving::EngineConfig big = cfg;
    big.model = model::llama13B();
    EXPECT_GT(enabled.bootTime(big), enabled.bootTime(cfg));
}

TEST(Heterogeneous, FastestScaleUpPolicyInstantiatesTheFastCandidate)
{
    // Mixed fleet {A100, A40}; a bursty overload forces scale-ups.
    model::AdapterPool pool(model::llama7B(), 30);
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = 2;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    spec.cluster.replicaEngines = {fast, spec.engine};
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 2;
    spec.cluster.autoscaler.maxReplicas = 6;
    spec.cluster.autoscaler.replicaServiceRps = 6.0;
    spec.cluster.autoscaler.scaleUpPolicy =
        routing::ScaleUpPolicy::Fastest;

    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 90.0;
    wl.numAdapters = 30;
    wl.bursts.push_back(workload::Burst{10.0, 60.0, 4.0});
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    ASSERT_GT(report.scaleUps, 0);
    const auto &engines = runner.cluster().engines();
    ASSERT_GT(engines.size(), 2u);
    // Every replica the policy instantiated is the fast candidate (the
    // default policy would have built base-engine A40s here).
    for (std::size_t i = 2; i < engines.size(); ++i)
        EXPECT_EQ(engines[i]->config().gpu.name, "a100-48g") << i;
}

TEST(Heterogeneous, MeasuredRatesBlendIntoTheRoutingWeights)
{
    model::AdapterPool pool(model::llama7B(), 30);
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 2;
    spec.cluster.autoscaler.maxReplicas = 2;
    spec.cluster.autoscaler.measuredRateAlpha = 0.2;

    auto wl = workload::splitwiseLike();
    wl.rps = 12.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 30;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    ASSERT_EQ(report.perReplicaEffectiveRate.size(), 2u);
    // The measured estimates moved off the static nominal values (a
    // batching engine completes far more than one isolated request per
    // isolated-E2E interval), and the cluster view reflects them.
    EXPECT_NE(report.perReplicaEffectiveRate,
              report.perReplicaServiceRate);
    EXPECT_GT(report.perReplicaEffectiveRate[0],
              report.perReplicaServiceRate[0]);
}

TEST(DataParallel, AutoscalerGrowsAndDrainsTheCluster)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 20);
    predict::LengthPredictor predictor(1.0);
    serving::DataParallelCluster cluster(
        simulator,
        [&](std::size_t) {
            return makeEngine(simulator, pool, predictor);
        },
        1,
        routing::RouterPolicy::JoinShortestQueue);

    routing::AutoscalerConfig acfg;
    acfg.minReplicas = 1;
    acfg.maxReplicas = 4;
    acfg.replicaServiceRps = 8.0;
    acfg.downCooldownPeriods = 2;
    cluster.enableAutoscaler(acfg);

    // 30 s burst at 4x the sustainable single-replica rate, then quiet.
    auto wl = workload::splitwiseLike();
    wl.rps = 8.0;
    wl.durationSeconds = 120.0;
    wl.numAdapters = 20;
    wl.bursts.push_back(workload::Burst{10.0, 40.0, 4.0});
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();
    cluster.submitTrace(trace);
    simulator.run();
    cluster.finalize();

    // The burst forces scale-ups; the quiet tail drains some again.
    EXPECT_GT(cluster.scaleUps(), 0);
    EXPECT_GT(cluster.engines().size(), 1u);
    EXPECT_LE(cluster.engines().size(), 4u);
    EXPECT_GT(cluster.scaleDowns(), 0);
    EXPECT_LT(cluster.activeReplicas(), cluster.engines().size());
    EXPECT_EQ(cluster.mergedStats().finished,
              static_cast<std::int64_t>(trace.size()));
}

namespace {

/** p99 TTFT (seconds) over requests arriving at/after `fromSeconds`. */
double
p99TtftAfter(const core::RunReport &report, double fromSeconds)
{
    std::vector<double> ttfts;
    const sim::SimTime cutoff = sim::fromSeconds(fromSeconds);
    for (const auto &rec : report.stats.records) {
        if (rec.arrival >= cutoff)
            ttfts.push_back(sim::toSeconds(rec.ttft));
    }
    EXPECT_FALSE(ttfts.empty());
    std::sort(ttfts.begin(), ttfts.end());
    return ttfts[static_cast<std::size_t>(
        0.99 * static_cast<double>(ttfts.size() - 1))];
}

} // namespace

TEST(ClosedLoop, MeasuredDemandScalesUpADegradedFleet)
{
    // Two replicas with identical spec sheets, but one is throttled so
    // its real throughput is a fraction of nominalServiceRate. The
    // queues stay under the high watermark (24 per replica) over this
    // 60 s trace, so any scale-up comes from the demand signal (the
    // nominal run's zero scale-ups show it for that run). Without
    // measurement (alpha 0) the nominal capacity signals count two
    // healthy replicas and never scale; measured rates (alpha > 0) see
    // the degradation and grow the fleet.
    model::AdapterPool pool(model::llama7B(), 30);
    const auto runWith = [&](double measuredRateAlpha) {
        auto spec = specFor("chameleon", model::llama7B(), model::a40());
        spec.cluster.replicas = 2;
        spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
        serving::EngineConfig degraded = spec.engine;
        degraded.maxRunning = 2;
        degraded.maxAdmissionsPerIter = 1;
        degraded.admissionTokenBudget = 128;
        spec.cluster.replicaEngines = {spec.engine, degraded};
        spec.cluster.autoscale = true;
        spec.cluster.autoscaler.minReplicas = 2;
        spec.cluster.autoscaler.maxReplicas = 4;
        spec.cluster.autoscaler.replicaServiceRps = 8.0;
        spec.cluster.autoscaler.measuredRateAlpha = measuredRateAlpha;

        // A metronome trace — 10 rps at exactly 100 ms spacing — so the
        // forecast slope is zero and the demand signal alone decides.
        std::vector<workload::Request> trace;
        for (int i = 0; i < 600; ++i) {
            workload::Request request;
            request.id = static_cast<workload::RequestId>(i);
            request.arrival = (i + 1) * (sim::kSec / 10);
            request.inputTokens = 64;
            request.outputTokens = 48;
            request.adapter = static_cast<model::AdapterId>(i % 30);
            trace.push_back(request);
        }
        core::Runner runner(spec, &pool);
        return runner.run(workload::Trace(std::move(trace)));
    };
    const auto nominal = runWith(0.0);
    const auto measured = runWith(0.3);
    // Steady 10 rps over 8 rps/replica: demand 2 == nominal capacity 2,
    // so the open loop sits still while the backlog belies it.
    EXPECT_EQ(nominal.peakReplicas, 2u);
    EXPECT_EQ(nominal.scaleUps, 0);
    // The closed loop discounts the throttled replica and scales.
    EXPECT_GT(measured.scaleUps, 0);
    EXPECT_GT(measured.peakReplicas, 2u);
}

TEST(ClosedLoop, BootAwareHorizonCutsThePostStepTail)
{
    // A fig28-shaped load step against a slow-booting fleet: the
    // static-horizon scaler orders replicas that land a full boot too
    // late, the boot-aware one looks `bootSeconds` ahead and has them
    // warm when the step arrives in force. The queue watermark may add
    // a replica in either run alike; only the horizon differs.
    model::AdapterPool pool(model::llama7B(), 30);
    auto wl = workload::splitwiseLike();
    wl.rps = 6.0;
    wl.durationSeconds = 140.0;
    wl.numAdapters = 30;
    wl.bursts.push_back(workload::Burst{40.0, 100.0, 4.0});
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    const auto p99With = [&](bool bootAware) {
        auto spec = specFor("chameleon", model::llama7B(), model::a40());
        spec.cluster.replicas = 1;
        spec.cluster.autoscale = true;
        spec.cluster.autoscaler.minReplicas = 1;
        spec.cluster.autoscaler.maxReplicas = 6;
        spec.cluster.autoscaler.replicaServiceRps = 8.0;
        spec.cluster.autoscaler.downCooldownPeriods = 4;
        spec.cluster.autoscaler.bootMs = 30000.0;
        spec.cluster.autoscaler.bootAwareHorizon = bootAware;
        core::Runner runner(spec, &pool);
        const auto report = runner.run(trace);
        EXPECT_GT(report.scaleUps, 0) << "bootAware=" << bootAware;
        return p99TtftAfter(report, 40.0);
    };
    const double staticP99 = p99With(false);
    const double bootAwareP99 = p99With(true);
    EXPECT_LT(bootAwareP99, staticP99);
}

// ------------------------------------------ memory follows requests in flight

namespace {

/** A long, low-load trace: short requests spaced ~5 per second. */
workload::Trace
longLowLoadTrace(std::size_t requests)
{
    sim::Rng rng(42);
    std::vector<workload::Request> reqs;
    sim::SimTime t = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        t += sim::fromSeconds(sim::sampleExponential(rng, 5.0));
        workload::Request r;
        r.id = static_cast<workload::RequestId>(i);
        r.arrival = t;
        r.inputTokens = 16 + static_cast<std::int64_t>(rng.nextBelow(112));
        r.outputTokens = 2 + static_cast<std::int64_t>(rng.nextBelow(14));
        r.adapter = static_cast<model::AdapterId>(rng.nextBelow(20));
        reqs.push_back(r);
    }
    return workload::Trace(std::move(reqs));
}

/** Most requests one replica held at once, from its records in a
 * run's report; requests that finish at another's arrival instant
 * count as overlapping. */
std::size_t
peakInFlight(const std::vector<serving::RequestRecord> &records,
             std::size_t replica)
{
    std::vector<std::pair<sim::SimTime, int>> edges;
    for (const auto &r : records) {
        if (r.replica != static_cast<std::int32_t>(replica))
            continue;
        edges.emplace_back(r.arrival, 0);          // arrivals sort first
        edges.emplace_back(r.arrival + r.e2e, 1);  // at equal times
    }
    std::sort(edges.begin(), edges.end());
    std::size_t live = 0;
    std::size_t peak = 0;
    for (const auto &[time, finish] : edges) {
        (void)time;
        live = finish ? live - 1 : live + 1;
        peak = std::max(peak, live);
    }
    return peak;
}

void
expectSlotsFollowRequestsInFlight(int replicas)
{
    model::AdapterPool pool(model::llama7B(), 20);
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = replicas;
    const auto trace = longLowLoadTrace(20000);
    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    ASSERT_EQ(report.stats.finished, static_cast<std::int64_t>(trace.size()));

    std::size_t peakTotal = 0;
    const auto &engines = runner.cluster().engines();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto &engine = engines[i];
        const std::size_t peak = peakInFlight(report.stats.records, i);
        peakTotal += peak;
        // One slot per request in flight at the busiest instant,
        // recycled ever after.
        EXPECT_LE(engine->requestSlots(), peak);
        EXPECT_GE(engine->requestSlots(), 1u);
    }
    EXPECT_LT(peakTotal, 100u) << "the trace is meant to run at low load";
    // Per engine an iteration, a transfer and a retry or two; per
    // request in flight at most its pending arrival. Nothing per
    // request served.
    EXPECT_LE(runner.simulator().eventSlots(),
              8 * static_cast<std::size_t>(replicas) + 2 * peakTotal);
}

} // namespace

TEST(InFlightMemory, OneReplicaSlotsFollowPeakInFlight)
{
    expectSlotsFollowRequestsInFlight(1);
}

TEST(InFlightMemory, FourReplicaSlotsFollowPeakInFlight)
{
    expectSlotsFollowRequestsInFlight(4);
}

namespace {

/** Whether T has a `ttft` member (a latency tracker). */
template <typename T, typename = void>
struct HasTtft : std::false_type
{
};
template <typename T>
struct HasTtft<T, std::void_t<decltype(std::declval<T &>().ttft)>>
    : std::true_type
{
};

// An engine's stats hold no latency tracker: a finished request's
// latencies are in its record, and only a run's stats build trackers.
static_assert(!HasTtft<serving::EngineStats>::value);
static_assert(HasTtft<serving::RunStats>::value);

/**
 * After Runner::run the report holds the run's only copy of its
 * per-request data: every engine kept its counters but no record or
 * TBT sample, the report's records sit in storage reserved for the
 * trace, and its latency trackers are reserved to their exact counts.
 * Returns the replicas the run built.
 */
std::size_t
expectReportOwnsRecords(const core::SystemSpec &spec,
                        const workload::Trace &trace,
                        const model::AdapterPool &pool)
{
    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    const auto &records = report.stats.records;
    EXPECT_GT(report.stats.finished, 0);
    EXPECT_EQ(records.size(),
              static_cast<std::size_t>(report.stats.finished));
    std::int64_t finished = 0;
    const auto &engines = runner.cluster().engines();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const serving::EngineStats &s = engines[i]->stats();
        EXPECT_TRUE(s.records.empty()) << "replica " << i;
        EXPECT_TRUE(s.tbt.empty()) << "replica " << i;
        finished += s.finished;
        EXPECT_EQ(static_cast<std::int64_t>(std::count_if(
                      records.begin(), records.end(),
                      [i](const serving::RequestRecord &r) {
                          return r.replica == static_cast<std::int32_t>(i);
                      })),
                  s.finished)
            << "replica " << i;
    }
    EXPECT_EQ(finished, report.stats.finished);
    // Every request finished, and its record was written once into
    // storage reserved for the trace: no doubling slack.
    EXPECT_EQ(records.size(), trace.size());
    EXPECT_EQ(records.capacity(), records.size());
    // Replica by replica, each in finish order.
    for (std::size_t i = 1; i < records.size(); ++i) {
        const auto &a = records[i - 1];
        const auto &b = records[i];
        EXPECT_TRUE(a.replica < b.replica ||
                    (a.replica == b.replica &&
                     a.arrival + a.e2e <= b.arrival + b.e2e))
            << "records " << i - 1 << " and " << i;
    }
    for (const auto &field : serving::kLatencyFields) {
        const auto &samples = (report.stats.*field.tracker).sorted();
        EXPECT_EQ(samples.capacity(), samples.size()) << field.name;
    }
    return engines.size();
}

core::SystemSpec
ownershipSpec(int replicas)
{
    auto spec = specFor("chameleon", model::llama7B(), model::a40());
    spec.cluster.replicas = replicas;
    return spec;
}

} // namespace

namespace {

/**
 * Records labelled by `replicaOf(i)` for record i, ids in order; then
 * check sortByReplica against std::stable_sort by replica.
 */
template <typename ReplicaOf>
void
expectSortByReplicaIsStable(std::size_t count, std::size_t replicas,
                            ReplicaOf replicaOf)
{
    std::vector<serving::RequestRecord> records(count);
    for (std::size_t i = 0; i < count; ++i) {
        records[i].id = static_cast<std::int64_t>(i);
        records[i].replica = replicaOf(i);
    }
    auto expected = records;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const serving::RequestRecord &a,
                        const serving::RequestRecord &b) {
                         return a.replica < b.replica;
                     });
    serving::sortByReplica(records, replicas);
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(records[i].id, expected[i].id) << "record " << i;
        EXPECT_EQ(records[i].replica, expected[i].replica) << "record " << i;
    }
}

} // namespace

TEST(SortByReplica, MatchesStableSortOnRandomLabels)
{
    sim::Rng rng(7);
    expectSortByReplicaIsStable(5000, 16, [&](std::size_t) {
        return static_cast<std::int32_t>(rng.nextBelow(16));
    });
}

TEST(SortByReplica, LeavesEmptyReplicasEmpty)
{
    // Only the odd replicas of 12 (and never the last) serve.
    sim::Rng rng(11);
    expectSortByReplicaIsStable(3000, 12, [&](std::size_t) {
        return static_cast<std::int32_t>(1 + 2 * rng.nextBelow(5));
    });
    expectSortByReplicaIsStable(0, 4, [](std::size_t) { return 0; });
}

TEST(SortByReplica, KeepsASingleReplicasOrder)
{
    expectSortByReplicaIsStable(1000, 1, [](std::size_t) { return 0; });
}

TEST(SortByReplica, GathersEveryRecordOnOneReplica)
{
    expectSortByReplicaIsStable(1000, 8, [](std::size_t) { return 5; });
}

TEST(SortByReplica, OrdersReplicasAddedMidRun)
{
    // Replicas join as the run goes on: record i can land on any of the
    // first 1 + i / 500 replicas, as in an autoscaled cluster.
    sim::Rng rng(3);
    expectSortByReplicaIsStable(4000, 8, [&](std::size_t i) {
        return static_cast<std::int32_t>(rng.nextBelow(1 + i / 500));
    });
}

TEST(ReportOwnership, OneReplicaHandsOverItsRecords)
{
    model::AdapterPool pool(model::llama7B(), 20);
    EXPECT_EQ(expectReportOwnsRecords(ownershipSpec(1),
                                      longLowLoadTrace(3000), pool),
              1u);
}

TEST(ReportOwnership, FourReplicasHandOverTheirRecords)
{
    model::AdapterPool pool(model::llama7B(), 20);
    EXPECT_EQ(expectReportOwnsRecords(ownershipSpec(4),
                                      longLowLoadTrace(3000), pool),
              4u);
}

namespace {

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &values)
{
    std::vector<std::uint64_t> out(values.size());
    std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
    return out;
}

/**
 * Run `replicas` replicas over a low-load trace where every fifth
 * request has no adapter, and check that each latency tracker of the
 * report holds exactly its records' values: the same count, the same
 * sorted bits, and a mean summed in record order. The load stall is
 * sampled only for requests with an adapter.
 */
void
expectTrackersHoldTheirRecords(int replicas)
{
    model::AdapterPool pool(model::llama7B(), 20);
    const workload::Trace base = longLowLoadTrace(3000);
    std::vector<workload::Request> requests = base.requests();
    for (std::size_t i = 0; i < requests.size(); i += 5)
        requests[i].adapter = model::kNoAdapter;
    const workload::Trace trace(std::move(requests));
    core::Runner runner(ownershipSpec(replicas), &pool);
    const auto report = runner.run(trace);
    const auto &records = report.stats.records;
    ASSERT_EQ(records.size(), trace.size());

    struct Expected
    {
        const char *name;
        const sim::PercentileTracker &tracker;
        std::vector<double> values;
    };
    Expected expected[] = {{"ttft", report.stats.ttft, {}},
                           {"e2e", report.stats.e2e, {}},
                           {"queueDelay", report.stats.queueDelay, {}},
                           {"loadStall", report.stats.loadStall, {}}};
    for (const auto &r : records) {
        expected[0].values.push_back(sim::toSeconds(r.ttft));
        expected[1].values.push_back(sim::toSeconds(r.e2e));
        expected[2].values.push_back(sim::toSeconds(r.queueDelay));
        if (r.adapter != model::kNoAdapter)
            expected[3].values.push_back(sim::toMillis(r.adapterStall));
    }
    EXPECT_EQ(expected[3].values.size(), records.size() - 600);
    for (auto &e : expected) {
        double sum = 0.0;
        for (const double v : e.values)
            sum += v;
        const double mean = sum / static_cast<double>(e.values.size());
        EXPECT_EQ(bitsOf({e.tracker.mean()}), bitsOf({mean})) << e.name;
        std::sort(e.values.begin(), e.values.end());
        EXPECT_EQ(e.tracker.count(), e.values.size()) << e.name;
        EXPECT_EQ(bitsOf(e.tracker.sorted()), bitsOf(e.values)) << e.name;
    }
}

} // namespace

TEST(ReportTrackers, OneReplicaTrackersHoldItsRecords)
{
    expectTrackersHoldTheirRecords(1);
}

TEST(ReportTrackers, FourReplicaTrackersHoldTheirRecords)
{
    expectTrackersHoldTheirRecords(4);
}

TEST(ReportOwnership, AutoscaledReplicasHandOverTheirRecords)
{
    model::AdapterPool pool(model::llama7B(), 30);
    auto spec = ownershipSpec(1);
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 1;
    spec.cluster.autoscaler.maxReplicas = 4;
    spec.cluster.autoscaler.replicaServiceRps = 6.0;
    spec.cluster.autoscaler.downCooldownPeriods = 2;
    auto wl = workload::splitwiseLike();
    wl.rps = 8.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 30;
    wl.bursts.push_back(workload::Burst{15.0, 35.0, 3.0});
    workload::TraceGenerator gen(wl, &pool);
    EXPECT_GT(expectReportOwnsRecords(spec, gen.generate(), pool), 1u);
}

// ---------------------------------------------------------------------
// Lifecycle invariants: a misordered or out-of-range call aborts,
// naming the broken rule, instead of corrupting the run.
// ---------------------------------------------------------------------

namespace {

/** Routes every request one past the last routable replica. */
class OutOfRangeRouter : public routing::Router
{
  public:
    const char *name() const override { return "out-of-range"; }

    std::size_t
    route(const workload::Request &, const routing::ClusterView &view)
        override
    {
        return view.replicaCount();
    }
};

/** A small SLoRA cluster over a short trace, built inside each test. */
struct LifecycleRig
{
    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), 8};
    predict::LengthPredictor predictor{1.0};
    workload::Trace trace;

    LifecycleRig()
    {
        auto wl = workload::splitwiseLike();
        wl.rps = 4.0;
        wl.durationSeconds = 5.0;
        wl.numAdapters = 8;
        trace = workload::TraceGenerator(wl, &pool).generate();
    }

    serving::DataParallelCluster
    cluster(int replicas, std::unique_ptr<routing::Router> router =
                              routing::makeRouter(
                                  routing::RouterPolicy::RoundRobin))
    {
        return serving::DataParallelCluster(
            simulator,
            [this](std::size_t) {
                return makeEngine(simulator, pool, predictor);
            },
            replicas, std::move(router));
    }
};

} // namespace

TEST(ClusterLifecycleDeathTest, ControlPlaneWiringMustPrecedeTheTrace)
{
    EXPECT_DEATH(
        {
            LifecycleRig rig;
            auto cluster = rig.cluster(2);
            cluster.submitTrace(rig.trace);
            cluster.enableAutoscaler(routing::AutoscalerConfig{}, 0.0);
        },
        "enableAutoscaler must precede submitTrace");
    EXPECT_DEATH(
        {
            LifecycleRig rig;
            auto cluster = rig.cluster(2);
            cluster.submitTrace(rig.trace);
            cluster.enableMeasuredRates(0.5);
        },
        "enableMeasuredRates must precede submitTrace");
    EXPECT_DEATH(
        {
            LifecycleRig rig;
            auto cluster = rig.cluster(2);
            fabric::CacheFabric fabric(rig.simulator, rig.pool, {});
            cluster.submitTrace(rig.trace);
            cluster.attachFabric(&fabric);
        },
        "attachFabric must precede submitTrace");
}

TEST(ClusterLifecycleDeathTest, AutoscaledClusterTakesASingleTrace)
{
    EXPECT_DEATH(
        {
            LifecycleRig rig;
            auto cluster = rig.cluster(2);
            cluster.enableAutoscaler(routing::AutoscalerConfig{}, 0.0);
            cluster.submitTrace(rig.trace);
            cluster.submitTrace(rig.trace);
        },
        "an autoscaled cluster takes a single trace");
}

TEST(ClusterLifecycleDeathTest, ResizeBelowOneReplicaAborts)
{
    EXPECT_DEATH(
        {
            LifecycleRig rig;
            auto cluster = rig.cluster(2);
            cluster.resize(0);
        },
        "cluster cannot resize below one replica");
}

TEST(ClusterLifecycleDeathTest, RouterPickOutsideTheRoutableSetAborts)
{
    EXPECT_DEATH(
        {
            LifecycleRig rig;
            auto cluster =
                rig.cluster(3, std::make_unique<OutOfRangeRouter>());
            cluster.submitTrace(rig.trace);
            rig.simulator.run();
        },
        "router returned an inactive replica");
}
