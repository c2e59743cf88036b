/**
 * @file
 * End-to-end integration tests over the Runner facade: every registered
 * system runs a common trace to completion; cross-system invariants
 * from the paper's evaluation hold directionally.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/slo.h"
#include "simkit/rng.h"
#include "test_util.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

struct Env
{
    model::AdapterPool pool{model::llama7B(), 50};
    workload::Trace trace;

    explicit Env(double rps = 8.0, double seconds = 60.0)
    {
        auto wl = workload::splitwiseLike();
        wl.rps = rps;
        wl.durationSeconds = seconds;
        wl.numAdapters = 50;
        workload::TraceGenerator gen(wl, &pool);
        trace = gen.generate();
    }

    /** Registry spec stamped with the test hardware. */
    core::SystemSpec spec(const std::string &system) const
    {
        auto spec = core::SystemRegistry::global().lookup(system);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        return spec;
    }

    core::RunReport run(const std::string &system) const
    {
        return core::runSpec(spec(system), &pool, trace);
    }
};

std::string
testName(const std::string &system)
{
    std::string name = system;
    for (auto &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // namespace

class SystemNameTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SystemNameTest, RunsTraceToCompletion)
{
    Env env(6.0, 40.0);
    const auto result = env.run(testutil::systemOf(GetParam()));
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
    EXPECT_GT(result.stats.ttft.p50(), 0.0);
    EXPECT_GT(result.stats.e2e.p99(), result.stats.ttft.p99());
    // Every finished request produced a record.
    EXPECT_EQ(result.stats.records.size(), env.trace.size());
}

// The registered systems, and the six composed variants that were
// registered presets once, under their old names as labels.
INSTANTIATE_TEST_SUITE_P(
    AllRegistered, SystemNameTest,
    ::testing::Values("slora", "slora-sjf", "slora-chunked",
                      "chameleon-nocache", "chameleon-nosched",
                      "chameleon", "chameleon-lru",
                      "chameleon-fairshare", "chameleon-gdsf",
                      "chameleon-prefetch", "chameleon-static",
                      "chameleon-output-only", "chameleon-degree1"),
    [](const auto &info) { return testName(info.param); });

/** Composed (grammar) systems run end-to-end like presets. */
class ComposedSystemTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ComposedSystemTest, RunsTraceToCompletion)
{
    Env env(6.0, 40.0);
    const auto result = env.run(GetParam());
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ComposedSystemTest,
    ::testing::Values("chameleon+gdsf+prefetch", "slora+cache",
                      "chameleon+sjf", "chameleon+history",
                      "slora+chunked128+sjf"),
    [](const auto &info) { return testName(info.param); });

TEST(SystemIntegration, DeterministicResults)
{
    Env env(6.0, 30.0);
    const auto a = env.run("chameleon");
    const auto b = env.run("chameleon");
    EXPECT_EQ(a.stats.ttft.sorted(), b.stats.ttft.sorted());
    EXPECT_EQ(a.pcieBytes, b.pcieBytes);
}

TEST(SystemIntegration, CacheRaisesHitRateAndCutsPcieTraffic)
{
    Env env(8.0, 60.0);
    const auto base = env.run("slora");
    const auto cham = env.run("chameleon");
    EXPECT_GT(cham.cacheHitRate, base.cacheHitRate + 0.15);
    EXPECT_LT(cham.pcieBytes, base.pcieBytes);
}

TEST(SystemIntegration, CacheCutsCriticalPathLoading)
{
    // Fig. 14: most Chameleon requests hit the cache and pay zero
    // loading latency; the baseline pays more, more often.
    Env env(8.0, 60.0);
    const auto base = env.run("slora");
    const auto cham = env.run("chameleon");
    EXPECT_LE(cham.stats.loadStall.mean(), base.stats.loadStall.mean());
}

TEST(SystemIntegration, ChameleonImprovesTailAtHighLoad)
{
    Env env(10.0, 90.0);
    const auto base = env.run("slora");
    const auto cham = env.run("chameleon");
    EXPECT_LT(cham.stats.ttft.p99(), base.stats.ttft.p99());
    EXPECT_LT(cham.stats.ttft.p50(), base.stats.ttft.p50());
}

TEST(SystemIntegration, MlqFormsMultipleQueues)
{
    Env env(8.0, 60.0);
    const auto result = env.run("chameleon");
    EXPECT_GE(result.mlqQueues, 2);
}

TEST(SystemIntegration, SquashRateStaysBounded)
{
    // §4.3.3: at most ~5% of requests get squashed.
    Env env(10.0, 90.0);
    const auto cham = env.run("chameleon");
    EXPECT_LE(static_cast<double>(cham.stats.squashes),
              0.05 * static_cast<double>(cham.stats.finished) + 1.0);
}

TEST(SystemIntegration, BaseOnlyWorkloadRuns)
{
    auto wl = workload::splitwiseLike();
    wl.rps = 5.0;
    wl.durationSeconds = 30.0;
    wl.numAdapters = 0;
    workload::TraceGenerator gen(wl, nullptr);
    const auto trace = gen.generate();
    auto spec = core::SystemRegistry::global().lookup("slora");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    const auto result = core::runSpec(spec, nullptr, trace);
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    EXPECT_EQ(result.pcieBytes, 0);
}

TEST(SystemIntegration, SloAndSlowdownHelpers)
{
    Env env(6.0, 40.0);
    model::CostModel cost(model::llama7B(), model::a40());
    const auto slo = serving::computeSlo(env.trace, cost, &env.pool);
    EXPECT_GT(sim::toSeconds(slo), 1.0);
    const auto result = env.run("chameleon");
    auto sd = serving::slowdowns(result.stats.records, cost, &env.pool);
    EXPECT_GE(sd.percentile(1.0), 0.9); // can't beat run-alone by much
    EXPECT_GE(sd.p99(), sd.p50());
}

// ------------------------------------------------- isolated latency

namespace {

/** One hardware point of the IsolatedLatency equivalence tests. */
struct IsolatedHw
{
    const char *name;
    model::ModelSpec model;
    model::GpuSpec gpu;
    int tp;
};

std::vector<IsolatedHw>
isolatedHardware()
{
    return {{"llama7b-a40-tp1", model::llama7B(), model::a40(), 1},
            {"llama13b-a100-80-tp2", model::llama13B(), model::a100(80), 2},
            {"llama70b-a100-80-tp4", model::llama70B(), model::a100(80), 4}};
}

/** CostModel::isolatedE2e, the per-token reference definition. */
sim::SimTime
referenceE2e(const model::CostModel &cost, const model::AdapterPool &pool,
             std::int64_t input, std::int64_t output,
             model::AdapterId adapter)
{
    if (adapter == model::kNoAdapter)
        return cost.isolatedE2e(input, output, 0, 0, false);
    const auto &spec = pool.spec(adapter);
    return cost.isolatedE2e(input, output, spec.rank, spec.bytes,
                            spec.rank > 0);
}

} // namespace

TEST(IsolatedLatency, MatchesPerTokenLoopOnShortOutputsAndEveryRank)
{
    for (const auto &hw : isolatedHardware()) {
        const model::CostModel cost(hw.model, hw.gpu, hw.tp);
        // 10 adapters: two of each paper rank 8..128.
        const model::AdapterPool pool(hw.model, 10);
        serving::IsolatedLatency isolated(cost, &pool);
        for (model::AdapterId adapter = model::kNoAdapter;
             adapter < pool.size(); ++adapter) {
            for (const std::int64_t input : {4, 142, 2000}) {
                for (const std::int64_t output : {0, 1, 2, 3}) {
                    EXPECT_EQ(isolated.e2e(input, output, adapter),
                              referenceE2e(cost, pool, input, output,
                                           adapter))
                        << hw.name << " adapter " << adapter << " input "
                        << input << " output " << output;
                }
            }
        }
    }
}

TEST(IsolatedLatency, MatchesPerTokenLoopAtFullContext)
{
    // Input and output are each clamped to 2000 tokens, so a KV length
    // of 4000 is the longest any generated trace asks for.
    for (const auto &hw : isolatedHardware()) {
        const model::CostModel cost(hw.model, hw.gpu, hw.tp);
        const model::AdapterPool pool(hw.model, 10);
        serving::IsolatedLatency isolated(cost, &pool);
        for (model::AdapterId adapter = model::kNoAdapter;
             adapter < pool.size(); ++adapter) {
            for (const auto &[input, output] :
                 std::vector<std::pair<std::int64_t, std::int64_t>>{
                     {2000, 2000}, {4, 3996}, {3996, 4}}) {
                EXPECT_EQ(isolated.e2e(input, output, adapter),
                          referenceE2e(cost, pool, input, output, adapter))
                    << hw.name << " adapter " << adapter << " input "
                    << input << " output " << output;
            }
        }
    }
}

TEST(IsolatedLatency, MatchesPerTokenLoopOnRandomRequests)
{
    const auto hardware = isolatedHardware();
    std::vector<model::CostModel> costs;
    std::vector<model::AdapterPool> pools;
    std::vector<serving::IsolatedLatency> tables;
    for (const auto &hw : hardware) {
        costs.emplace_back(hw.model, hw.gpu, hw.tp);
        pools.emplace_back(hw.model, 10);
    }
    for (std::size_t i = 0; i < hardware.size(); ++i)
        tables.emplace_back(costs[i], &pools[i]);
    sim::Rng rng(20251017);
    int mismatches = 0;
    for (int sample = 0; sample < 20000; ++sample) {
        const auto hw = rng.nextBelow(hardware.size());
        const auto input = static_cast<std::int64_t>(rng.nextBelow(2001));
        const auto output = static_cast<std::int64_t>(rng.nextBelow(2001));
        const auto adapter = static_cast<model::AdapterId>(
                                 rng.nextBelow(pools[hw].size() + 1)) -
                             1;
        const auto got = tables[hw].e2e(input, output, adapter);
        const auto want =
            referenceE2e(costs[hw], pools[hw], input, output, adapter);
        if (got != want && ++mismatches <= 5) {
            ADD_FAILURE() << hardware[hw].name << " adapter " << adapter
                          << " input " << input << " output " << output
                          << ": " << got << " != " << want;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(IsolatedLatency, AnswersDoNotDependOnQueryOrder)
{
    const model::CostModel cost(model::llama7B(), model::a40());
    const model::AdapterPool pool(model::llama7B(), 10);
    const std::vector<std::pair<std::int64_t, std::int64_t>> requests = {
        {2000, 2000}, {1500, 700}, {96, 300}, {10, 5}, {4, 2}};
    serving::IsolatedLatency longFirst(cost, &pool);
    serving::IsolatedLatency shortFirst(cost, &pool);
    for (model::AdapterId adapter : {model::kNoAdapter, 0, 9}) {
        std::vector<sim::SimTime> forward;
        std::vector<sim::SimTime> backward;
        for (const auto &[input, output] : requests)
            forward.push_back(longFirst.e2e(input, output, adapter));
        for (auto it = requests.rbegin(); it != requests.rend(); ++it)
            backward.insert(backward.begin(),
                            shortFirst.e2e(it->first, it->second, adapter));
        EXPECT_EQ(forward, backward) << "adapter " << adapter;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            EXPECT_EQ(forward[i],
                      referenceE2e(cost, pool, requests[i].first,
                                   requests[i].second, adapter));
        }
    }
}

TEST(IsolatedLatency, MeanMatchesPerTokenLoopBitForBit)
{
    Env env(8.0, 120.0);
    const model::CostModel cost(model::llama7B(), model::a40());
    double total_s = 0.0;
    for (const auto &r : env.trace.requests()) {
        total_s += sim::toSeconds(referenceE2e(cost, env.pool, r.inputTokens,
                                               r.outputTokens, r.adapter));
    }
    const sim::SimTime reference = sim::fromSeconds(
        total_s / static_cast<double>(env.trace.size()));
    EXPECT_EQ(serving::meanIsolatedE2e(env.trace, cost, &env.pool),
              reference);
}

TEST(Throughput, KneeFinderInterpolates)
{
    const std::vector<std::pair<double, double>> sweep{
        {6.0, 1.0}, {8.0, 2.0}, {10.0, 6.0}, {12.0, 20.0}};
    // SLO of 4 s sits between 8 RPS (2 s) and 10 RPS (6 s).
    EXPECT_NEAR(serving::throughputKnee(sweep, 4.0), 9.0, 1e-9);
    // SLO below the first point: that load is already a violation.
    EXPECT_DOUBLE_EQ(serving::throughputKnee(sweep, 0.5), 6.0);
    // SLO above everything: compliant at the top of the sweep.
    EXPECT_DOUBLE_EQ(serving::throughputKnee(sweep, 100.0), 12.0);
}

TEST(SystemIntegration, HistoryPredictorVariantRuns)
{
    Env env(8.0, 60.0);
    auto spec = env.spec("chameleon");
    spec.predictor.kind = "history";
    const auto result = core::runSpec(spec, &env.pool, env.trace);
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
    // Online predictions are rougher than the oracle's: under-
    // predictions may cost preemptions, but the run must stay sane.
    EXPECT_LE(result.stats.preemptions, result.stats.finished / 10);
}

TEST(SystemIntegration, BypassDisabledStillCompletes)
{
    Env env(9.0, 60.0);
    auto spec = env.spec("chameleon");
    spec.scheduler.bypass = false;
    const auto result = core::runSpec(spec, &env.pool, env.trace);
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
    EXPECT_EQ(result.stats.bypasses, 0);
    EXPECT_EQ(result.stats.squashes, 0);
}

TEST(SystemIntegration, UtilisationAccountingConsistent)
{
    Env env(8.0, 60.0);
    const auto result = env.run("chameleon");
    const auto &s = result.stats;
    EXPECT_GT(s.busyTime, 0);
    EXPECT_GT(s.iterations, 0);
    // Every request's input tokens were prefilled exactly once (no
    // squashes in this run), and one decode token per generated token
    // beyond the first.
    std::int64_t expect_prefill = 0;
    std::int64_t expect_decode = 0;
    for (const auto &r : env.trace.requests()) {
        expect_prefill += r.inputTokens;
        expect_decode += r.outputTokens - 1;
    }
    if (s.squashes == 0 && s.preemptions == 0) {
        EXPECT_EQ(s.prefillTokens, expect_prefill);
        EXPECT_EQ(s.decodeTokens, expect_decode);
    }
}

TEST(HistoryPredictor, OneReplicaPredictsFromObservedCompletions)
{
    // A single replica builds each request when it arrives, so the
    // history predictor has observed every completion before it: the
    // second request on adapter 3 is predicted from the first one's
    // output length, and a request on an unseen adapter from the
    // global average, not from the cold default.
    model::AdapterPool pool(model::llama7B(), 10);
    auto spec = core::SystemRegistry::global().lookup("chameleon+history");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    auto request = [](workload::RequestId id, double arrivalSeconds,
                      std::int64_t output, model::AdapterId adapter) {
        workload::Request r;
        r.id = id;
        r.arrival = sim::fromSeconds(arrivalSeconds);
        r.inputTokens = 64;
        r.outputTokens = output;
        r.adapter = adapter;
        return r;
    };
    const workload::Trace trace({request(1, 0.0, 200, 3),
                                 request(2, 60.0, 10, 3),
                                 request(3, 60.0, 10, 5)});
    core::Runner runner(spec, &pool);
    runner.cluster().submitTrace(trace);
    runner.simulator().runUntil(sim::fromSeconds(60.0));
    ASSERT_EQ(runner.engine().stats().finished, 1);
    const serving::LiveRequest *second = runner.engine().findRequest(2);
    const serving::LiveRequest *unseen = runner.engine().findRequest(3);
    ASSERT_NE(second, nullptr);
    ASSERT_NE(unseen, nullptr);
    EXPECT_EQ(second->predictedOutput, 200);
    EXPECT_EQ(unseen->predictedOutput, 200);
    runner.simulator().run();
    EXPECT_EQ(runner.engine().stats().finished, 3);
}
