/**
 * @file
 * Tests for the cluster routing subsystem: policy selection, the
 * consistent-hash ring, each dispatch policy against a scripted
 * ClusterView, the arrival-rate forecaster, and autoscaler up/down
 * transitions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "obs/trace_recorder.h"
#include "routing/autoscaler.h"
#include "routing/consistent_hash.h"
#include "routing/router.h"
#include "routing/slo_admission.h"
#include "simkit/time.h"

using namespace chameleon;

namespace {

/** Scripted cluster state for standalone router tests. */
struct FakeView : routing::ClusterView
{
    std::vector<std::int64_t> loads;
    std::set<std::pair<std::size_t, model::AdapterId>> resident;
    /** Per-replica service weights; empty = homogeneous (all 1.0). */
    std::vector<double> weights;

    std::size_t replicaCount() const override { return loads.size(); }

    std::int64_t
    outstanding(std::size_t i) const override
    {
        return loads[i];
    }

    bool
    adapterResident(std::size_t i, model::AdapterId id) const override
    {
        return resident.count({i, id}) > 0;
    }

    double
    serviceWeight(std::size_t i) const override
    {
        return weights.empty() ? 1.0 : weights[i];
    }
};

workload::Request
requestFor(model::AdapterId adapter)
{
    workload::Request r;
    r.id = adapter;
    r.adapter = adapter;
    return r;
}

/**
 * One evaluation of a homogeneous fleet: every replica is a reference
 * replica, so the capacity factor is the active count clamped into the
 * scaler's bounds.
 */
std::size_t
evaluateHomogeneous(routing::Autoscaler &scaler, std::size_t active,
                    std::int64_t outstanding, sim::SimTime now)
{
    routing::CapacitySignals capacity;
    capacity.activeCapacityFactor = static_cast<double>(
        std::clamp(active, scaler.config().minReplicas,
                   scaler.config().maxReplicas));
    return scaler.evaluate(active, outstanding, now, capacity);
}

} // namespace

TEST(RouterPolicy, NamesRoundTrip)
{
    using routing::RouterPolicy;
    for (const auto policy :
         {RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue,
          RouterPolicy::PowerOfTwoChoices, RouterPolicy::AdapterAffinity,
          RouterPolicy::AdapterAffinityDirectory}) {
        RouterPolicy parsed;
        ASSERT_TRUE(routing::routerPolicyByName(
            routing::routerPolicyName(policy), &parsed));
        EXPECT_EQ(parsed, policy);
        // The factory-built router reports the canonical name.
        EXPECT_STREQ(routing::makeRouter(policy)->name(),
                     routing::routerPolicyName(policy));
    }
    RouterPolicy parsed;
    EXPECT_FALSE(routing::routerPolicyByName("nope", &parsed));
    EXPECT_TRUE(routing::routerPolicyByName("round-robin", &parsed));
    EXPECT_EQ(parsed, RouterPolicy::RoundRobin);
    // Parse-only alias of the cache-aware policy.
    EXPECT_TRUE(routing::routerPolicyByName("affinity-cache", &parsed));
    EXPECT_EQ(parsed, RouterPolicy::AdapterAffinityDirectory);
}

TEST(ConsistentHash, OwnerIsStableAndBalanced)
{
    routing::ConsistentHashRing ring(64);
    ring.resize(4);
    std::map<std::size_t, int> share;
    for (std::uint64_t key = 0; key < 1000; ++key) {
        const auto owner = ring.owner(key);
        EXPECT_LT(owner, 4u);
        EXPECT_EQ(owner, ring.owner(key)); // deterministic
        ++share[owner];
    }
    // Virtual nodes keep every replica's share within loose bounds.
    for (const auto &[replica, count] : share) {
        EXPECT_GT(count, 100) << "replica " << replica;
        EXPECT_LT(count, 500) << "replica " << replica;
    }
}

TEST(ConsistentHash, RemovalOnlyMovesTheRemovedReplicasKeys)
{
    routing::ConsistentHashRing ring(64);
    ring.resize(4);
    std::map<std::uint64_t, std::size_t> before;
    for (std::uint64_t key = 0; key < 1000; ++key)
        before[key] = ring.owner(key);

    ring.removeReplica(2);
    int moved = 0;
    for (std::uint64_t key = 0; key < 1000; ++key) {
        const auto owner = ring.owner(key);
        EXPECT_NE(owner, 2u);
        if (before[key] != 2u) {
            // Keys not owned by the removed replica must not move.
            EXPECT_EQ(owner, before[key]) << "key " << key;
        } else {
            ++moved;
        }
    }
    EXPECT_GT(moved, 0);

    // Re-adding restores the original mapping exactly.
    ring.addReplica(2);
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(ring.owner(key), before[key]);
}

TEST(ConsistentHash, PreferenceListStartsAtOwnerAndIsDistinct)
{
    routing::ConsistentHashRing ring(32);
    ring.resize(5);
    for (std::uint64_t key = 0; key < 50; ++key) {
        const auto prefs = ring.preferenceList(key, 5);
        ASSERT_EQ(prefs.size(), 5u);
        EXPECT_EQ(prefs.front(), ring.owner(key));
        EXPECT_EQ(std::set<std::size_t>(prefs.begin(), prefs.end()).size(),
                  5u);
    }
}

TEST(RoundRobinRouter, CyclesAndSurvivesReplicaChanges)
{
    auto router = routing::makeRouter(routing::RouterPolicy::RoundRobin);
    FakeView view;
    view.loads = {0, 0, 0};
    const auto r = requestFor(model::kNoAdapter);
    EXPECT_EQ(router->route(r, view), 0u);
    EXPECT_EQ(router->route(r, view), 1u);
    EXPECT_EQ(router->route(r, view), 2u);
    EXPECT_EQ(router->route(r, view), 0u);
    // Shrink the active set mid-cycle; the cursor wraps into range.
    view.loads = {0, 0};
    router->onReplicaCountChanged(2);
    for (int i = 0; i < 4; ++i)
        EXPECT_LT(router->route(r, view), 2u);
}

TEST(JsqRouter, PicksLeastLoadedWithLowestIndexTieBreak)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::JoinShortestQueue);
    FakeView view;
    const auto r = requestFor(model::kNoAdapter);
    view.loads = {3, 1, 1, 2};
    // Ties break deterministically toward the lowest index.
    EXPECT_EQ(router->route(r, view), 1u);
    view.loads = {0, 0, 0, 0};
    EXPECT_EQ(router->route(r, view), 0u);
    view.loads = {5, 4, 3, 2};
    EXPECT_EQ(router->route(r, view), 3u);
}

TEST(P2cRouter, PrefersTheLessLoadedSampleAndIsSeedDeterministic)
{
    routing::RouterConfig config;
    config.seed = 7;
    auto a = routing::makeRouter(routing::RouterPolicy::PowerOfTwoChoices,
                                 config);
    auto b = routing::makeRouter(routing::RouterPolicy::PowerOfTwoChoices,
                                 config);
    FakeView view;
    const auto r = requestFor(model::kNoAdapter);
    // Same seed, same sampling stream (routers advanced in lockstep).
    view.loads = {4, 1, 0, 3, 2, 6};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a->route(r, view), b->route(r, view));
    // The heaviest replica is never chosen over its alternative.
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(a->route(r, view), 5u);
    // With two replicas both samples are {0, 1}: always the lighter one.
    view.loads = {9, 2};
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a->route(r, view), 1u);
}

TEST(AffinityRouter, SameAdapterSameReplicaAndSpreadAcrossReplicas)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    FakeView view;
    view.loads = {0, 0, 0, 0};
    std::set<std::size_t> used;
    for (model::AdapterId id = 0; id < 64; ++id) {
        const auto first = router->route(requestFor(id), view);
        EXPECT_EQ(router->route(requestFor(id), view), first);
        used.insert(first);
    }
    // 64 adapters over 4 replicas must hit more than one replica.
    EXPECT_GT(used.size(), 1u);
}

TEST(AffinityRouter, SpillsOverWhenTheOwnerIsOverloaded)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    FakeView view;
    view.loads = {0, 0, 0, 0};
    const model::AdapterId adapter = 13;
    const auto owner = router->route(requestFor(adapter), view);
    // Pile load onto the owner until the bounded-load test rejects it.
    view.loads[owner] = 100;
    const auto spilled = router->route(requestFor(adapter), view);
    EXPECT_NE(spilled, owner);
    // Spillover is deterministic (ring successor), not random.
    EXPECT_EQ(router->route(requestFor(adapter), view), spilled);
    // Once the owner drains, affinity resumes.
    view.loads[owner] = 0;
    EXPECT_EQ(router->route(requestFor(adapter), view), owner);
}

TEST(AffinityRouter, BaseOnlyRequestsBalanceByLoad)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    FakeView view;
    view.loads = {4, 0, 2};
    EXPECT_EQ(router->route(requestFor(model::kNoAdapter), view), 1u);
}

TEST(AffinityRouter, CacheAwareVariantPrefersResidentReplica)
{
    auto plain =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    auto aware = routing::makeRouter(
        routing::RouterPolicy::AdapterAffinityDirectory);
    FakeView view;
    view.loads = {0, 0, 0, 0};
    const model::AdapterId adapter = 21;
    const auto owner = plain->route(requestFor(adapter), view);
    // Make the adapter resident somewhere other than the hash owner.
    const std::size_t holder = (owner + 1) % 4;
    view.resident.insert({holder, adapter});
    EXPECT_EQ(aware->route(requestFor(adapter), view), holder);
    // An overloaded holder loses its preference and the hash owner wins.
    view.loads[holder] = 100;
    EXPECT_EQ(aware->route(requestFor(adapter), view), owner);
}

TEST(AffinityRouter, RingTracksAutoscaledReplicaSet)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    FakeView view;
    view.loads = {0, 0, 0, 0};
    std::map<model::AdapterId, std::size_t> before;
    for (model::AdapterId id = 0; id < 64; ++id)
        before[id] = router->route(requestFor(id), view);
    // Drain one replica: its adapters move, everyone else stays put.
    view.loads = {0, 0, 0};
    router->onReplicaCountChanged(3);
    for (model::AdapterId id = 0; id < 64; ++id) {
        const auto now = router->route(requestFor(id), view);
        EXPECT_LT(now, 3u);
        if (before[id] != 3u) {
            EXPECT_EQ(now, before[id]) << "adapter " << id;
        }
    }
}

// ---------------------------------------------------------------------
// Capacity-aware routing: heterogeneous service weights.
// ---------------------------------------------------------------------

TEST(JsqRouter, WeighsQueueDepthsByServiceRate)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::JoinShortestQueue);
    FakeView view;
    const auto r = requestFor(model::kNoAdapter);
    // Unweighted, replica 1 has the shorter queue...
    view.loads = {2, 1};
    EXPECT_EQ(router->route(r, view), 1u);
    // ...but at quarter speed its one request counts like four.
    view.weights = {1.0, 0.25};
    EXPECT_EQ(router->route(r, view), 0u);
    // Equal weighted loads tie-break to the lowest index as before.
    view.loads = {2, 1};
    view.weights = {1.0, 0.5};
    EXPECT_EQ(router->route(r, view), 0u);
}

TEST(P2cRouter, WeighsSampledQueueDepthsByServiceRate)
{
    routing::RouterConfig config;
    config.seed = 7;
    auto router = routing::makeRouter(
        routing::RouterPolicy::PowerOfTwoChoices, config);
    FakeView view;
    const auto r = requestFor(model::kNoAdapter);
    // With two replicas both samples are {0, 1}; the longer raw queue
    // wins once the short one belongs to a much slower replica.
    view.loads = {3, 2};
    view.weights = {1.0, 0.5};
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(router->route(r, view), 0u);
}

TEST(AffinityRouter, WeightedRingSharesTrackServiceWeights)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    FakeView view;
    view.loads = {0, 0, 0, 0};
    view.weights = {1.0, 1.0, 0.25, 0.25};
    std::map<std::size_t, int> share;
    for (model::AdapterId id = 0; id < 2000; ++id) {
        const auto first = router->route(requestFor(id), view);
        // Still deterministic per adapter.
        EXPECT_EQ(router->route(requestFor(id), view), first);
        ++share[first];
    }
    // Every replica serves some adapters, but each full-speed replica
    // owns a clear multiple of each quarter-speed one's share.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_GT(share[i], 0) << "replica " << i;
    for (std::size_t fast : {0u, 1u}) {
        for (std::size_t slow : {2u, 3u}) {
            EXPECT_GT(share[fast], 2 * share[slow])
                << "fast " << fast << " vs slow " << slow;
        }
    }
}

TEST(AffinityRouter, SpillThresholdIsCapacityNormalised)
{
    auto router =
        routing::makeRouter(routing::RouterPolicy::AdapterAffinity);
    FakeView view;
    view.loads = {0, 0, 0, 0};
    view.weights = {1.0, 1.0, 1.0, 1.0};
    const model::AdapterId adapter = 13;
    const auto owner = router->route(requestFor(adapter), view);
    // A queue the owner absorbs at full speed (depth 4 <= the bound
    // of mean + margin = 1.5 + 3)...
    view.loads[owner] = 4;
    view.loads[(owner + 1) % 4] = 2;
    EXPECT_EQ(router->route(requestFor(adapter), view), owner);
    // ...rejects it at quarter speed (weighted depth 16 > bound).
    view.weights[owner] = 0.25;
    EXPECT_NE(router->route(requestFor(adapter), view), owner);
}

TEST(ConsistentHash, WeightedResizeOnlyMovesTheReweightedKeys)
{
    routing::ConsistentHashRing ring(64);
    ring.resize(4);
    std::map<std::uint64_t, std::size_t> before;
    for (std::uint64_t key = 0; key < 1000; ++key)
        before[key] = ring.owner(key);

    // Halving replica 3's weight keeps a prefix of its points: keys
    // owned by the other replicas must not move.
    ring.resizeWeighted({1.0, 1.0, 1.0, 0.5});
    int moved = 0;
    for (std::uint64_t key = 0; key < 1000; ++key) {
        const auto owner = ring.owner(key);
        if (before[key] != 3u)
            EXPECT_EQ(owner, before[key]) << "key " << key;
        else if (owner != 3u)
            ++moved;
    }
    EXPECT_GT(moved, 0);

    // Restoring the weight restores the original mapping exactly, and
    // a same-weights resize is a no-op.
    ring.resizeWeighted({1.0, 1.0, 1.0, 1.0});
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(ring.owner(key), before[key]);
    ring.resizeWeighted({1.0, 1.0, 1.0, 1.0});
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(ring.owner(key), before[key]);
}

TEST(LoadForecaster, TracksSteadyRate)
{
    predict::LoadForecaster forecaster(10.0);
    // 10 arrivals/s for 10 s.
    for (int i = 0; i < 100; ++i)
        forecaster.recordArrival(i * sim::kSec / 10);
    const sim::SimTime now = 10 * sim::kSec;
    EXPECT_NEAR(forecaster.currentRps(now), 10.0, 1.5);
    // Flat load: forecast stays near the current rate.
    EXPECT_NEAR(forecaster.forecastRps(now, 5.0),
                forecaster.currentRps(now), 2.0);
}

TEST(LoadForecaster, RisingRateRaisesForecastAboveCurrent)
{
    predict::LoadForecaster forecaster(10.0);
    sim::SimTime t = 0;
    // 2/s over the older half-window, then 20/s over the recent half.
    for (int i = 0; i < 10; ++i)
        forecaster.recordArrival(t += sim::kSec / 2);
    for (int i = 0; i < 100; ++i)
        forecaster.recordArrival(t += sim::kSec / 20);
    const double current = forecaster.currentRps(t);
    EXPECT_GT(forecaster.forecastRps(t, 5.0), current);
}

TEST(Autoscaler, ScalesUpOnHighQueueAndDownAfterSustainedLow)
{
    routing::AutoscalerConfig config;
    config.minReplicas = 1;
    config.maxReplicas = 4;
    config.downCooldownPeriods = 2;
    routing::Autoscaler scaler(config);

    sim::SimTime now = sim::kSec;
    // 50 outstanding over 2 replicas = 25/replica > high watermark (24).
    EXPECT_EQ(evaluateHomogeneous(scaler, 2, 50, now), 3u);
    EXPECT_EQ(scaler.scaleUps(), 1);
    // The very next evaluation may scale up again.
    EXPECT_EQ(evaluateHomogeneous(scaler, 3, 75, now += sim::kSec), 4u);
    EXPECT_EQ(scaler.scaleUps(), 2);
    // At the ceiling the target saturates.
    EXPECT_EQ(evaluateHomogeneous(scaler, 4, 400, now += sim::kSec), 4u);
    // Low queue must persist downCooldownPeriods evaluations.
    EXPECT_EQ(evaluateHomogeneous(scaler, 3, 0, now += sim::kSec), 3u);
    EXPECT_EQ(evaluateHomogeneous(scaler, 3, 0, now += sim::kSec), 2u);
    EXPECT_EQ(scaler.scaleDowns(), 1);
    // A busy evaluation (5/replica, not below the low watermark of 4)
    // resets the streak.
    EXPECT_EQ(evaluateHomogeneous(scaler, 2, 0, now += sim::kSec), 2u);
    EXPECT_EQ(evaluateHomogeneous(scaler, 2, 10, now += sim::kSec), 2u);
    EXPECT_EQ(evaluateHomogeneous(scaler, 2, 0, now += sim::kSec), 2u);
    EXPECT_EQ(evaluateHomogeneous(scaler, 2, 0, now += sim::kSec), 1u);
    // Never below the floor.
    EXPECT_EQ(evaluateHomogeneous(scaler, 1, 0, now += sim::kSec), 1u);
    EXPECT_EQ(evaluateHomogeneous(scaler, 1, 0, now += sim::kSec), 1u);
}

TEST(Autoscaler, ForecastDemandJumpsDirectlyToTheNeededReplicas)
{
    routing::AutoscalerConfig config;
    config.minReplicas = 1;
    config.maxReplicas = 8;
    config.replicaServiceRps = 5.0;
    routing::Autoscaler scaler(config);

    // 40 rps of arrivals: demand >= ceil(40 / 5) = 8 replicas, reached
    // in one evaluation even though queues are still empty.
    sim::SimTime t = 0;
    for (int i = 0; i < 400; ++i)
        scaler.onArrival(t += sim::kSec / 40);
    EXPECT_EQ(evaluateHomogeneous(scaler, 1, 0, t), 8u);
    EXPECT_EQ(scaler.scaleUps(), 1);
    EXPECT_GE(scaler.lastForecastDemand(), 8.0);
}

TEST(Autoscaler, ClampsTheActiveCountIntoItsBounds)
{
    routing::AutoscalerConfig config;
    config.minReplicas = 2;
    config.maxReplicas = 4;
    routing::Autoscaler scaler(config);
    // Idle cluster reported outside the bounds: the target comes back
    // clamped from both ends (evaluate never honours an out-of-range
    // count, matching enableAutoscaler's initial clamp).
    EXPECT_EQ(evaluateHomogeneous(scaler, 1, 0, sim::kSec), 2u);
    EXPECT_EQ(evaluateHomogeneous(scaler, 9, 1000, 2 * sim::kSec), 4u);
}

TEST(Autoscaler, NonPositiveServiceRpsFallsBackToWatermarksOnly)
{
    routing::AutoscalerConfig config;
    config.minReplicas = 1;
    config.maxReplicas = 8;
    config.replicaServiceRps = 0.0; // forecast signal disabled
    config.downCooldownPeriods = 1;
    routing::Autoscaler scaler(config);

    // A flood of arrivals alone must not trigger the forecast path...
    sim::SimTime t = 0;
    for (int i = 0; i < 500; ++i)
        scaler.onArrival(t += sim::kSec / 50);
    EXPECT_EQ(evaluateHomogeneous(scaler, 1, 0, t), 1u);
    EXPECT_DOUBLE_EQ(scaler.lastForecastDemand(), 0.0);
    // ...while the queue watermark still scales one step at a time.
    EXPECT_EQ(evaluateHomogeneous(scaler, 1, 30, t += sim::kSec), 2u);
    // And a quiet queue scales down without a demand veto.
    EXPECT_EQ(evaluateHomogeneous(scaler, 2, 0, t += sim::kSec), 1u);
}

TEST(Autoscaler, AggregateCapacityDrivesDemandOnAMixedFleet)
{
    // One fresh scaler per sub-case so every evaluation sees the
    // identical ~30 rps forecast (demand = ceil(rps / 5) units,
    // captured below rather than pinned to the forecaster's rounding).
    double demand = 0.0;
    const auto evaluateWith =
        [&demand](const routing::CapacitySignals &capacity) {
            routing::AutoscalerConfig config;
            config.minReplicas = 1;
            config.maxReplicas = 16;
            config.replicaServiceRps = 5.0;
            routing::Autoscaler scaler(config);
            sim::SimTime t = 0;
            for (int i = 0; i < 300; ++i)
                scaler.onArrival(t += sim::kSec / 30);
            const std::size_t target = scaler.evaluate(2, 0, t, capacity);
            demand = scaler.lastForecastDemand();
            return target;
        };

    // Two replicas that amount to 8 reference units absorb the ~6-7
    // unit demand: no scale-up even though the count (2) is far below
    // the unit demand.
    routing::CapacitySignals big;
    big.activeCapacityFactor = 8.0;
    big.nextReplicaFactor = 1.0;
    EXPECT_EQ(evaluateWith(big), 2u);
    ASSERT_GE(demand, 6.0);
    ASSERT_LE(demand, 7.0);

    // The same two replicas at an aggregate of 1.0 units fall short;
    // the shortfall is covered by 2.5-unit replicas...
    routing::CapacitySignals small;
    small.activeCapacityFactor = 1.0;
    small.nextReplicaFactor = 2.5;
    EXPECT_EQ(evaluateWith(small),
              2u + static_cast<std::size_t>(
                       std::ceil((demand - 1.0) / 2.5)));

    // ...and needs proportionally more reference-speed ones.
    routing::CapacitySignals unit;
    unit.activeCapacityFactor = 1.0;
    unit.nextReplicaFactor = 1.0;
    EXPECT_EQ(evaluateWith(unit),
              2u + static_cast<std::size_t>(demand - 1.0));
}

TEST(Autoscaler, MixedFleetSurplusVetoesTheQueueScaleDown)
{
    routing::AutoscalerConfig config;
    config.minReplicas = 1;
    config.maxReplicas = 8;
    config.replicaServiceRps = 5.0;
    config.downCooldownPeriods = 1;
    routing::Autoscaler scaler(config);

    // 12 rps, a little trend over the 15 s horizon: demand =
    // ceil(13.6 / 5) = 3 reference units.
    sim::SimTime t = 0;
    for (int i = 0; i < 120; ++i)
        scaler.onArrival(t += sim::kSec / 12);

    // Two fast replicas (aggregate 4.0 > demand 3): surplus capacity,
    // an idle queue may drain one.
    routing::CapacitySignals surplus;
    surplus.activeCapacityFactor = 4.0;
    surplus.nextReplicaFactor = 2.0;
    EXPECT_EQ(scaler.evaluate(2, 0, t, surplus), 1u);
    ASSERT_DOUBLE_EQ(scaler.lastForecastDemand(), 3.0);
    // Two slower replicas (aggregate 3.0, no surplus over demand 3):
    // the demand signal vetoes the scale-down the idle queue asked for.
    routing::CapacitySignals matched;
    matched.activeCapacityFactor = 3.0;
    matched.nextReplicaFactor = 1.0;
    EXPECT_EQ(scaler.evaluate(2, 0, t, matched), 2u);
    EXPECT_EQ(scaler.scaleDowns(), 1);
}

TEST(ScaleUpPolicy, NamesRoundTrip)
{
    using routing::ScaleUpPolicy;
    for (const auto policy :
         {ScaleUpPolicy::Default, ScaleUpPolicy::Fastest}) {
        ScaleUpPolicy parsed;
        ASSERT_TRUE(routing::scaleUpPolicyByName(
            routing::scaleUpPolicyName(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    ScaleUpPolicy parsed;
    EXPECT_FALSE(routing::scaleUpPolicyByName("warp", &parsed));
    EXPECT_FALSE(routing::scaleUpPolicyByName("cheapest", &parsed));
}

TEST(Autoscaler, BootAwareHorizonScalesUpBeforeTheStaticOne)
{
    // A rising arrival rate whose forecast grows with the horizon:
    // the boot-aware scaler prices in that the replica it orders now
    // only arrives after a long boot, looks further out, and scales
    // while the static-horizon scaler still sees enough capacity.
    const auto targetWith = [](bool bootAware) {
        routing::AutoscalerConfig config;
        config.minReplicas = 1;
        config.maxReplicas = 16;
        config.replicaServiceRps = 5.0;
        config.bootAwareHorizon = bootAware;
        routing::Autoscaler scaler(config);
        sim::SimTime t = 0;
        // 5/s over the older half-window, doubling over the recent
        // half: the trend keeps raising longer-horizon forecasts.
        for (int i = 0; i < 25; ++i)
            scaler.onArrival(t += sim::kSec / 5);
        for (int i = 0; i < 50; ++i)
            scaler.onArrival(t += sim::kSec / 10);
        // Over the 15 s horizon the forecast (29.1 rps, 6 units) fits
        // eight replicas; over the 30 s boot (45.3 rps, 10 units) not.
        routing::CapacitySignals capacity;
        capacity.activeCapacityFactor = 8.0;
        capacity.nextReplicaFactor = 1.0;
        capacity.nextReplicaBootSeconds = 30.0;
        return scaler.evaluate(8, 0, t, capacity);
    };
    const std::size_t staticTarget = targetWith(false);
    const std::size_t bootAwareTarget = targetWith(true);
    EXPECT_EQ(staticTarget, 8u);
    EXPECT_GT(bootAwareTarget, staticTarget);
}

TEST(Autoscaler, BootAwareHorizonNeverShrinksTheConfiguredOne)
{
    // A boot shorter than the 15 s horizon must change nothing: the
    // stretch is max(horizon, boot), not a replacement.
    const auto demandWith = [](double bootSeconds, bool bootAware) {
        routing::AutoscalerConfig config;
        config.minReplicas = 1;
        config.maxReplicas = 16;
        config.replicaServiceRps = 5.0;
        config.bootAwareHorizon = bootAware;
        routing::Autoscaler scaler(config);
        sim::SimTime t = 0;
        for (int i = 0; i < 25; ++i)
            scaler.onArrival(t += sim::kSec / 5);
        for (int i = 0; i < 75; ++i)
            scaler.onArrival(t += sim::kSec / 15);
        routing::CapacitySignals capacity;
        capacity.activeCapacityFactor = 4.0;
        capacity.nextReplicaFactor = 1.0;
        capacity.nextReplicaBootSeconds = bootSeconds;
        scaler.evaluate(4, 0, t, capacity);
        return scaler.lastForecastDemand();
    };
    EXPECT_DOUBLE_EQ(demandWith(5.0, true), demandWith(5.0, false));
    EXPECT_GT(demandWith(60.0, true), demandWith(60.0, false));
}

TEST(Autoscaler, EvalInstantRecordsRawCountAndNextFactor)
{
    // The autoscale_eval instant must carry the pre-clamp active count
    // and the next-replica factor, or min/max saturation and capacity
    // pricing stay invisible in the exported trace.
    routing::AutoscalerConfig config;
    config.minReplicas = 2;
    config.maxReplicas = 4;
    routing::Autoscaler scaler(config);
    obs::TraceRecorder recorder;
    scaler.setTraceRecorder(&recorder);
    routing::CapacitySignals capacity;
    capacity.activeCapacityFactor = 2.0;
    capacity.nextReplicaFactor = 2.5;
    scaler.evaluate(1, 0, sim::kSec, capacity); // raw 1, clamped to 2
    const std::string json = recorder.toJson();
    EXPECT_NE(json.find("\"raw_active\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"active\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"next_factor\": 2.5"), std::string::npos)
        << json;
}

TEST(SloAdmissionRouter, SteersCriticalTenantsToTheFastestReplica)
{
    // Tenant 0 runs at 0.5x the SLO (critical); tenant 1 at 2x.
    auto router = std::make_unique<routing::SloAdmissionRouter>(
        routing::makeRouter(routing::RouterPolicy::RoundRobin),
        std::vector<double>{0.5, 2.0});
    EXPECT_STREQ(router->name(), "slo-admission");
    FakeView view;
    view.loads = {0, 0, 0};
    view.weights = {1.0, 3.0, 2.0};

    workload::Request critical = requestFor(model::kNoAdapter);
    critical.tenant = 0;
    // Always the fastest replica, regardless of the inner cursor.
    EXPECT_EQ(router->route(critical, view), 1u);
    EXPECT_EQ(router->route(critical, view), 1u);
    EXPECT_EQ(router->steered(), 2);

    // Non-critical traffic flows through the inner policy untouched —
    // the round-robin cursor starts where the base policy left it.
    workload::Request relaxed = requestFor(model::kNoAdapter);
    relaxed.tenant = 1;
    EXPECT_EQ(router->route(relaxed, view), 0u);
    EXPECT_EQ(router->route(relaxed, view), 1u);
    EXPECT_EQ(router->route(relaxed, view), 2u);
    EXPECT_EQ(router->steered(), 2);
}

TEST(SloAdmissionRouter, BeyondTableTenantsUseTheDefaultMultiplier)
{
    // The tenancy table stops at tenant 0; every tenant past it (and
    // the anonymous tenant of untagged requests) gets the default 1.0
    // multiplier — not critical, so the base policy decides.
    auto router = std::make_unique<routing::SloAdmissionRouter>(
        routing::makeRouter(routing::RouterPolicy::RoundRobin),
        std::vector<double>{0.5});
    FakeView view;
    view.loads = {0, 0};
    view.weights = {1.0, 5.0};
    workload::Request beyond = requestFor(model::kNoAdapter);
    beyond.tenant = 7;
    EXPECT_EQ(router->route(beyond, view), 0u); // round robin, not 1
    EXPECT_EQ(router->steered(), 0);
}

TEST(SloAdmissionRouter, TieBreaksByNormalisedLoadThenIndex)
{
    auto router = std::make_unique<routing::SloAdmissionRouter>(
        routing::makeRouter(routing::RouterPolicy::RoundRobin),
        std::vector<double>{0.25});
    FakeView view;
    view.weights = {2.0, 2.0, 2.0};
    workload::Request critical = requestFor(model::kNoAdapter);
    critical.tenant = 0;
    // Equal weights: the shorter queue wins.
    view.loads = {4, 1, 3};
    EXPECT_EQ(router->route(critical, view), 1u);
    // Full tie: the lowest index wins, deterministically.
    view.loads = {2, 2, 2};
    EXPECT_EQ(router->route(critical, view), 0u);
}
