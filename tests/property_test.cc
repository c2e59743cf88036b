/**
 * @file
 * Property-based tests: system-wide invariants checked across random
 * seeds and registered systems via parameterised suites.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/slo.h"
#include "test_util.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

struct RunOutput
{
    core::RunReport result;
    workload::Trace trace;
    model::CostModel cost{model::llama7B(), model::a40()};
};

core::SystemSpec
testbedSpec(const std::string &system)
{
    auto spec = core::SystemRegistry::global().lookup(system);
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    return spec;
}

RunOutput
runSeeded(const std::string &system, std::uint64_t seed, double rps = 8.0)
{
    static model::AdapterPool pool(model::llama7B(), 50);
    auto wl = workload::splitwiseLike();
    wl.rps = rps;
    wl.durationSeconds = 45.0;
    wl.numAdapters = 50;
    wl.seed = seed;
    workload::TraceGenerator gen(wl, &pool);
    RunOutput out;
    out.trace = gen.generate();
    out.result = core::runSpec(testbedSpec(system), &pool, out.trace);
    return out;
}

model::AdapterPool &
sharedPool()
{
    static model::AdapterPool pool(model::llama7B(), 50);
    return pool;
}

} // namespace

/** (system, seed) grid. The system is a std::string, not a
 * `const char *`, so gtest prints its text rather than its address
 * and the test names stay the same from build to build. */
class SystemInvariants
    : public ::testing::TestWithParam<std::tuple<std::string,
                                                 std::uint64_t>>
{
};

TEST_P(SystemInvariants, ConservationAndSanity)
{
    const auto [system, seed] = GetParam();
    const auto out = runSeeded(testutil::systemOf(system), seed);
    const auto &s = out.result.stats;

    // Every submitted request finishes once the trace drains.
    EXPECT_EQ(s.finished, static_cast<std::int64_t>(out.trace.size()));
    EXPECT_EQ(s.records.size(), out.trace.size());

    // Latency ordering invariants per request.
    for (const auto &rec : s.records) {
        EXPECT_GE(rec.ttft, 0);
        EXPECT_GE(rec.e2e, rec.ttft);
        EXPECT_GE(rec.queueDelay, 0);
        EXPECT_LE(rec.queueDelay, rec.ttft);
        // TTFT can never beat the pure compute lower bound.
        const auto lower = out.cost.prefillTime(rec.inputTokens);
        EXPECT_GE(rec.ttft, lower)
            << "request " << rec.id << " beat physics";
    }

    // Hit + miss counts cover every adapter-carrying arrival at least
    // once (squash re-queues may add more).
    std::int64_t adapter_reqs = 0;
    for (const auto &r : out.trace.requests())
        adapter_reqs += r.adapter != model::kNoAdapter ? 1 : 0;
    EXPECT_GE(s.adapterHits + s.adapterMisses, adapter_reqs);

    // The slowdown of every request is at least ~1 (cannot beat
    // run-alone by more than model rounding).
    const auto sd = serving::slowdowns(s.records, out.cost, &sharedPool());
    EXPECT_GE(sd.percentile(0.0), 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsBySeeds, SystemInvariants,
    ::testing::Combine(
        ::testing::Values("slora", "slora-sjf", "chameleon-nocache",
                          "chameleon-nosched", "chameleon",
                          // labels of composed variants (systemOf)
                          "slora-chunked", "chameleon-gdsf",
                          "chameleon-static",
                          // composed-grammar points of the policy space
                          "chameleon+lru+prefetch", "slora+cache"),
        ::testing::Values(1u, 2u, 3u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

/** Metamorphic: an autoscaler pinned at min = max = N never changes the
 *  replica set, so its run is the fixed N-replica cluster's, event for
 *  event, under every router. (router, N) grid. */
class PinnedAutoscaler
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(PinnedAutoscaler, MatchesTheFixedCluster)
{
    const auto [router, replicas] = GetParam();
    static model::AdapterPool pool(model::llama7B(), 100);
    auto wl = workload::splitwiseLike();
    wl.rps = 16.0;
    wl.durationSeconds = 120.0;
    wl.numAdapters = 100;
    const auto trace = workload::TraceGenerator(wl, &pool).generate();

    auto spec = testbedSpec("chameleon");
    spec.cluster.replicas = replicas;
    ASSERT_TRUE(routing::routerPolicyByName(router, &spec.cluster.router));
    const auto fixed = core::runSpec(spec, &pool, trace);

    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = replicas;
    spec.cluster.autoscaler.maxReplicas = replicas;
    spec.cluster.autoscaler.replicaServiceRps = 8.0;
    const auto pinned = core::runSpec(spec, &pool, trace);

    EXPECT_EQ(pinned.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    EXPECT_EQ(pinned.scaleUps + pinned.scaleDowns, 0);
    EXPECT_EQ(pinned.eventHash, fixed.eventHash);
}

INSTANTIATE_TEST_SUITE_P(
    RoutersByReplicas, PinnedAutoscaler,
    ::testing::Combine(::testing::Values("rr", "jsq", "p2c", "affinity",
                                         "affinity-dir"),
                       ::testing::Values(2, 4)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_x" + std::to_string(std::get<1>(info.param));
    });

/** Load monotonicity: higher offered load never lowers tail latency
 *  by much (allowing small non-monotonic noise). */
class LoadMonotonicity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LoadMonotonicity, P99GrowsWithLoad)
{
    const auto lo = runSeeded(GetParam(), 11, 6.0);
    const auto hi = runSeeded(GetParam(), 11, 11.0);
    EXPECT_GT(hi.result.stats.ttft.p99(),
              0.8 * lo.result.stats.ttft.p99());
    EXPECT_GT(hi.result.stats.e2e.p99(), lo.result.stats.e2e.p99());
}

INSTANTIATE_TEST_SUITE_P(Systems, LoadMonotonicity,
                         ::testing::Values("slora", "chameleon"));

/** Predictor-accuracy property: Chameleon's P99 TTFT with a perfect
 *  predictor is no worse than with a broken one (within noise). */
TEST(PredictorProperty, BetterAccuracyNeverMuchWorse)
{
    model::AdapterPool pool(model::llama7B(), 50);
    auto wl = workload::splitwiseLike();
    wl.rps = 9.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 50;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    auto spec = testbedSpec("chameleon");
    spec.predictor.accuracy = 1.0;
    const auto perfect = core::runSpec(spec, &pool, trace);
    spec.predictor.accuracy = 0.3;
    const auto broken = core::runSpec(spec, &pool, trace);
    EXPECT_LE(perfect.stats.ttft.p99(),
              1.25 * broken.stats.ttft.p99());
}

/** Cache property: the Chameleon cache never transfers more bytes than
 *  the cacheless baseline on the same trace. */
TEST(CacheProperty, NeverMoreTrafficThanBaseline)
{
    for (std::uint64_t seed : {5u, 6u, 7u}) {
        const auto base = runSeeded("slora", seed);
        const auto cham = runSeeded("chameleon", seed);
        EXPECT_LE(cham.result.pcieBytes, base.result.pcieBytes)
            << "seed " << seed;
        EXPECT_GE(cham.result.cacheHitRate, base.result.cacheHitRate - 0.02)
            << "seed " << seed;
    }
}

/** Determinism across systems, including composed ones. */
TEST(DeterminismProperty, IdenticalRunsIdenticalResults)
{
    for (const char *system :
         {"slora", "chameleon", "chameleon+prefetch",
          "chameleon+gdsf+prefetch"}) {
        const auto a = runSeeded(system, 9);
        const auto b = runSeeded(system, 9);
        EXPECT_EQ(a.result.stats.ttft.sorted(), b.result.stats.ttft.sorted());
        EXPECT_EQ(a.result.pcieBytes, b.result.pcieBytes);
        EXPECT_EQ(a.result.stats.iterations, b.result.stats.iterations);
    }
}
