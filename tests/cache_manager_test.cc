/**
 * @file
 * Unit tests for the Chameleon Adapter Cache / Cache Manager (§4.2).
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "chameleon/cache_manager.h"
#include "model/cost_model.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/simulator.h"
#include "test_util.h"

using namespace chameleon;

namespace {

struct Fixture
{
    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), 10};
    model::CostModel cost{model::llama7B(), model::a40()};
    gpu::GpuMemory mem;
    gpu::PcieLink link;
    core::CacheManager mgr;

    explicit Fixture(std::int64_t capacity = 48ll << 30,
                     core::CacheConfig cfg = core::CacheConfig{})
        : mem(capacity, 0, 0),
          link(simulator,
               [this](std::int64_t bytes) {
                   return cost.adapterLoadTime(bytes);
               }),
          mgr(pool, mem, link, cost, cfg)
    {
    }
};

} // namespace

TEST(CacheManager, RetainsIdleAdapterInCache)
{
    Fixture f;
    f.mgr.acquire(0, 0);
    f.simulator.run();
    f.mgr.release(0);
    // Contrary to the baseline, the adapter stays resident as cache.
    EXPECT_TRUE(f.mgr.isResident(0));
    EXPECT_EQ(f.mem.adapterInUseBytes(), 0);
    EXPECT_EQ(f.mgr.cachedBytes(), f.pool.spec(0).bytes);
    for (model::AdapterId id = 1; id < f.pool.size(); ++id)
        EXPECT_FALSE(f.mgr.isResident(id));
}

TEST(CacheManager, ReacquireFromCacheIsInstant)
{
    Fixture f;
    f.mgr.acquire(0, 0);
    f.simulator.run();
    f.mgr.release(0);
    const auto now = f.simulator.now();
    EXPECT_EQ(f.mgr.acquire(0, now), now); // no transfer
    EXPECT_EQ(f.link.totalTransfers(), 1);
    EXPECT_EQ(f.mgr.cachedBytes(), 0); // moved back to in-use
}

TEST(CacheManager, DynamicDownsizingFreesMemoryOnDemand)
{
    // Capacity fits two rank-8 adapters (16.8 MB each) only.
    Fixture f(40ll << 20);
    f.mgr.acquire(0, 0);
    f.mgr.acquire(1, 0);
    f.simulator.run();
    f.mgr.release(0);
    f.mgr.release(1);
    EXPECT_TRUE(f.mgr.isResident(0));
    EXPECT_TRUE(f.mgr.isResident(1));
    EXPECT_EQ(f.mgr.cachedBytes(),
              f.pool.spec(0).bytes + f.pool.spec(1).bytes);
    // A KV demand arrives: the cache must shrink.
    EXPECT_TRUE(f.mgr.tryFreeMemory(20ll << 20));
    EXPECT_FALSE(f.mgr.isResident(0) && f.mgr.isResident(1));
    EXPECT_LE(f.mgr.cachedBytes(), f.pool.spec(0).bytes);
    EXPECT_GE(f.mem.freeBytes(), 20ll << 20);
}

TEST(CacheManager, EvictionFollowsPolicyOrder)
{
    Fixture f(200ll << 20);
    // Touch adapter 1 (rank 8) many times; adapter 0 once.
    f.mgr.acquire(0, 0);
    f.simulator.run();
    f.mgr.release(0);
    for (int i = 0; i < 5; ++i) {
        f.mgr.acquire(1, f.simulator.now());
        f.simulator.run();
        f.mgr.release(1);
    }
    // Force a one-adapter eviction (the watermark overshoot still fits
    // within a single rank-8 eviction).
    ASSERT_TRUE(f.mgr.tryFreeMemory(f.mem.freeBytes() + (5ll << 20)));
    EXPECT_FALSE(f.mgr.isResident(0)); // cold one evicted
    EXPECT_TRUE(f.mgr.isResident(1));  // popular one kept
    EXPECT_EQ(f.mgr.evictions(), 1);
}

TEST(CacheManager, NeverEvictsInUseAdapters)
{
    Fixture f(40ll << 20);
    f.mgr.acquire(0, 0); // in use, ~16.8 MB
    f.simulator.run();
    // Nothing idle to evict: cannot free more than what is left.
    EXPECT_FALSE(f.mgr.tryFreeMemory(30ll << 20));
    EXPECT_TRUE(f.mgr.isResident(0));
}

TEST(CacheManager, QueuedPinnedEvictedOnlyUnderPressure)
{
    Fixture f(40ll << 20);
    f.mgr.acquire(0, 0);
    f.mgr.acquire(1, 0);
    f.simulator.run();
    f.mgr.release(0);
    f.mgr.release(1);
    f.mgr.onRequestQueued(1, f.simulator.now()); // pin adapter 1
    // Freeing a little: the unpinned adapter 0 goes first.
    ASSERT_TRUE(f.mgr.tryFreeMemory(f.mem.freeBytes() + (10ll << 20)));
    EXPECT_FALSE(f.mgr.isResident(0));
    EXPECT_TRUE(f.mgr.isResident(1));
    // Freeing beyond that forces the pinned one out too.
    ASSERT_TRUE(f.mgr.tryFreeMemory(f.mem.freeBytes() + (10ll << 20)));
    EXPECT_FALSE(f.mgr.isResident(1));
}

TEST(CacheManager, QueuedPrefetchWarmsCache)
{
    Fixture f;
    f.mgr.onRequestQueued(4, 0); // starts prefetch
    f.simulator.run();
    EXPECT_TRUE(f.mgr.isResident(4));
    // Landed as cache (no running reference yet).
    EXPECT_EQ(f.mgr.cachedBytes(), f.pool.spec(4).bytes);
    const auto now = f.simulator.now();
    EXPECT_EQ(f.mgr.acquire(4, now), now);
    f.mgr.onRequestDequeued(4);
}

TEST(CacheManager, InfeasiblePrefetchLeavesCacheIntact)
{
    Fixture f(40ll << 20);
    f.mgr.acquire(0, 0);
    f.mgr.acquire(1, 0);
    f.simulator.run();
    f.mgr.release(0);
    f.mgr.release(1); // cache now full (two rank-8 adapters)
    const auto evictions_before = f.mgr.evictions();
    // Rank-128 (268 MB) cannot fit the 40 MB device at all: the manager
    // must not pointlessly destroy the cache trying.
    f.mgr.onRequestQueued(9, f.simulator.now());
    f.simulator.run();
    EXPECT_EQ(f.mgr.evictions(), evictions_before);
    EXPECT_FALSE(f.mgr.isResident(9));
    EXPECT_TRUE(f.mgr.isResident(0));
    EXPECT_TRUE(f.mgr.isResident(1));
    f.mgr.onRequestDequeued(9);
}

TEST(CacheManager, QueuedPrefetchEvictsUnpinnedButNotPinned)
{
    Fixture f(60ll << 20);
    // Fill the cache with three rank-8 adapters (16.8 MB each).
    for (model::AdapterId id : {0, 1}) {
        f.mgr.acquire(id, 0);
        f.simulator.run();
        f.mgr.release(id);
    }
    f.mgr.onRequestQueued(1, f.simulator.now()); // pin adapter 1
    // Prefetch for a queued rank-16 request (33.6 MB): free is ~26 MB,
    // so the unpinned adapter 0 must yield; the pinned 1 must survive.
    f.mgr.onRequestQueued(2, f.simulator.now());
    f.simulator.run();
    EXPECT_TRUE(f.mgr.isResident(2));
    EXPECT_TRUE(f.mgr.isResident(1));
    EXPECT_FALSE(f.mgr.isResident(0));
    f.mgr.onRequestDequeued(1);
    f.mgr.onRequestDequeued(2);
}

TEST(CacheManager, DemandLoadEvictsWhenNeeded)
{
    Fixture f(40ll << 20);
    f.mgr.acquire(0, 0);
    f.simulator.run();
    f.mgr.release(0); // cached 16.8 MB, free ~23 MB
    // Demand-acquire adapter 2 (rank 16, needs 33.6 MB): fits after
    // evicting the cached adapter. Adapter 9 (rank 128, 268 MB): never.
    EXPECT_NE(f.mgr.acquire(2, f.simulator.now()), sim::kTimeNever);
    EXPECT_EQ(f.mgr.acquire(9, f.simulator.now()), sim::kTimeNever);
}

TEST(CacheManager, HitMissAccounting)
{
    Fixture f;
    f.mgr.onRequestQueued(0, 0); // miss
    f.simulator.run();
    f.mgr.onRequestQueued(0, f.simulator.now()); // hit (prefetched)
    f.mgr.onRequestDequeued(0);
    f.mgr.onRequestDequeued(0);
    EXPECT_EQ(f.mgr.misses(), 1);
    EXPECT_EQ(f.mgr.hits(), 1);
}

TEST(CacheManager, PredictivePrefetchWarmsHotAdapters)
{
    core::CacheConfig cfg;
    cfg.predictivePrefetch = true;
    cfg.predictiveTopK = 2;
    Fixture f(48ll << 30, cfg);
    // Build history: adapter 3 is hot.
    for (int i = 0; i < 5; ++i) {
        f.mgr.onRequestQueued(3, sim::fromSeconds(i));
        f.mgr.onRequestDequeued(3);
    }
    // Evict everything, then run a scheduling cycle with an empty queue:
    // the predictor should re-warm adapter 3.
    f.mgr.tryFreeMemory(f.mem.freeBytes() + f.pool.spec(3).bytes);
    EXPECT_FALSE(f.mgr.isResident(3));
    f.mgr.onSchedulingCycle({}, sim::fromSeconds(6));
    f.simulator.run();
    EXPECT_TRUE(f.mgr.isResident(3));
}

TEST(CacheManager, CanMakeResidentCountsEvictable)
{
    Fixture f(300ll << 20);
    f.mgr.acquire(8, 0); // rank 128, ~268 MB
    f.simulator.run();
    f.mgr.release(8);
    // Another rank-128 fits only if the cached one is evictable.
    EXPECT_TRUE(f.mgr.canMakeResident(9));
    // While in use it is not evictable.
    f.mgr.acquire(8, f.simulator.now());
    EXPECT_FALSE(f.mgr.canMakeResident(9));
}

TEST(CacheManager, EvictionTiesGoToLowestId)
{
    core::CacheConfig cfg;
    cfg.evictionPolicy = "lru";
    Fixture f(200ll << 20, cfg);
    // Two rank-8 adapters acquired at the same instant (equal lastUsed):
    // only the id can break the tie.
    f.mgr.acquire(0, 0);
    f.mgr.acquire(1, 0);
    f.simulator.run();
    f.mgr.release(0);
    f.mgr.release(1);
    ASSERT_TRUE(f.mgr.tryFreeMemory(f.mem.freeBytes() + (5ll << 20)));
    EXPECT_EQ(f.mgr.evictions(), 1);
    EXPECT_FALSE(f.mgr.isResident(0));
    EXPECT_TRUE(f.mgr.isResident(1));
}

TEST(CacheManager, EvictableBytesMatchesReferenceUnderChurn)
{
    // A seeded random walk over every entry point that changes an
    // entry's state or reference counts, on a 10-adapter pool (16.8 MB
    // to 268 MB each) and a 400 MB device that KV growth keeps tight.
    // After every step the O(1) evictable-bytes counters must equal a
    // reference built from the test's own refcounts and isResident.
    for (const std::string policy : {"chameleon", "lru", "gdsf"}) {
        SCOPED_TRACE(policy);
        core::CacheConfig cfg;
        cfg.evictionPolicy = policy;
        cfg.predictivePrefetch = policy == "lru";
        Fixture f(400ll << 20, cfg);
        const int n = f.pool.size();
        std::vector<int> running(static_cast<std::size_t>(n), 0);
        std::vector<int> queued(static_cast<std::size_t>(n), 0);
        std::int64_t kv = 0;
        std::mt19937_64 rng(20241017);
        std::int64_t declined = 0;
        int pinnedSteps = 0; // steps with pinned idle bytes held back

        auto checkCounters = [&](int step) {
            std::int64_t unpinned = 0;
            std::int64_t all = 0;
            for (model::AdapterId id = 0; id < n; ++id) {
                const auto i = static_cast<std::size_t>(id);
                if (!f.mgr.isResident(id) || running[i] != 0)
                    continue;
                all += f.pool.spec(id).bytes;
                if (queued[i] == 0)
                    unpinned += f.pool.spec(id).bytes;
            }
            ASSERT_EQ(f.mgr.evictableBytes(false), unpinned)
                << "step " << step;
            ASSERT_EQ(f.mgr.evictableBytes(true), all) << "step " << step;
            ASSERT_EQ(f.mgr.cachedBytes(), f.mgr.evictableBytes(true))
                << "step " << step;
            pinnedSteps += unpinned < all ? 1 : 0;
        };

        for (int step = 0; step < 4000; ++step) {
            const auto id = static_cast<model::AdapterId>(rng() % n);
            const auto i = static_cast<std::size_t>(id);
            const auto now = f.simulator.now();
            switch (rng() % 8) {
              case 0:
                f.mgr.onRequestQueued(id, now);
                ++queued[i];
                break;
              case 1:
                if (queued[i] > 0) {
                    f.mgr.onRequestDequeued(id);
                    --queued[i];
                }
                break;
              case 2:
                if (f.mgr.acquire(id, now) != sim::kTimeNever)
                    ++running[i];
                else
                    ++declined;
                break;
              case 3:
                if (running[i] > 0) {
                    f.mgr.release(id);
                    --running[i];
                }
                break;
              case 4: {
                std::vector<model::AdapterId> waiting;
                for (model::AdapterId q = 0; q < n; ++q) {
                    if (queued[static_cast<std::size_t>(q)] > 0)
                        waiting.push_back(q);
                }
                f.mgr.onSchedulingCycle(waiting, now);
                break;
              }
              case 5: {
                // KV growth: shrink the cache for it, then take it.
                const auto bytes =
                    static_cast<std::int64_t>(rng() % (80ll << 20));
                if (f.mgr.tryFreeMemory(bytes) && f.mem.tryAllocKv(bytes))
                    kv += bytes;
                break;
              }
              case 6:
                f.mem.freeKv(kv);
                kv = 0;
                break;
              case 7:
                f.simulator.runUntil(now + sim::fromMillis(
                                               static_cast<double>(
                                                   rng() % 40)));
                break;
            }
            checkCounters(step);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // The walk reached the interesting states.
        EXPECT_GT(f.mgr.evictions(), 0);
        EXPECT_GT(f.mgr.kvShrinkEvictions(), 0);
        EXPECT_GT(f.mgr.queuedLoads(), 0);
        EXPECT_GT(declined, 0);
        EXPECT_GT(pinnedSteps, 0);
    }
}

TEST(CacheManager, QueuedNotResidentMatchesScanUnderChurn)
{
    // The evictable-bytes walk above, plus peer admits, on a device that
    // keeps queued prefetches failing. After every step the O(1) count
    // of queued adapters that are neither resident nor loading must
    // equal a scan over the residency transitions the manager reported
    // and the test's own queue refcounts. Whenever the count is zero, a
    // scheduling cycle over the queued adapters must start no transfer:
    // that is what lets the engine skip building the list.
    Fixture f(400ll << 20);
    const int n = f.pool.size();
    testutil::ResidencyLog log(n);
    f.mgr.setResidencyListener(&log, 0);
    std::vector<int> running(static_cast<std::size_t>(n), 0);
    std::vector<int> queued(static_cast<std::size_t>(n), 0);
    std::int64_t kv = 0;
    std::mt19937_64 rng(20241019);
    int skippableCycles = 0;
    int neededSteps = 0;

    auto queuedIds = [&] {
        std::vector<model::AdapterId> ids;
        for (model::AdapterId q = 0; q < n; ++q) {
            for (int k = 0; k < queued[static_cast<std::size_t>(q)]; ++k)
                ids.push_back(q);
        }
        return ids;
    };

    for (int step = 0; step < 4000; ++step) {
        const auto id = static_cast<model::AdapterId>(rng() % n);
        const auto i = static_cast<std::size_t>(id);
        const auto now = f.simulator.now();
        switch (rng() % 9) {
          case 0:
            f.mgr.onRequestQueued(id, now);
            ++queued[i];
            break;
          case 1:
            if (queued[i] > 0) {
                f.mgr.onRequestDequeued(id);
                --queued[i];
            }
            break;
          case 2:
            if (f.mgr.acquire(id, now) != sim::kTimeNever)
                ++running[i];
            break;
          case 3:
            if (running[i] > 0) {
                f.mgr.release(id);
                --running[i];
            }
            break;
          case 4: {
            const bool needed = f.mgr.needsQueuedAdapters();
            const auto loads = f.mgr.queuedLoads();
            f.mgr.onSchedulingCycle(queuedIds(), now);
            if (!needed) {
                ASSERT_EQ(f.mgr.queuedLoads(), loads) << "step " << step;
                ++skippableCycles;
            }
            break;
          }
          case 5: {
            const auto bytes =
                static_cast<std::int64_t>(rng() % (120ll << 20));
            if (f.mgr.tryFreeMemory(bytes) && f.mem.tryAllocKv(bytes))
                kv += bytes;
            break;
          }
          case 6:
            f.mem.freeKv(kv);
            kv = 0;
            break;
          case 7:
            f.mgr.peerAdmit(id, now + sim::fromMillis(5.0), now);
            break;
          case 8:
            f.simulator.runUntil(
                now + sim::fromMillis(static_cast<double>(rng() % 40)));
            break;
        }
        const std::int64_t expected = log.queuedNotResident(queued);
        ASSERT_EQ(f.mgr.queuedNotResident(), expected) << "step " << step;
        ASSERT_EQ(f.mgr.needsQueuedAdapters(), expected > 0)
            << "step " << step;
        neededSteps += expected > 0 ? 1 : 0;
    }
    // The walk reached both regimes and every transition kind.
    EXPECT_GT(neededSteps, 0);
    EXPECT_GT(skippableCycles, 0);
    EXPECT_GT(f.mgr.evictions(), 0);
    EXPECT_GT(f.mgr.queuedLoads(), 0);
    EXPECT_GT(f.mgr.peerLoads(), 0);
}

TEST(CacheManagerDeathTest, RejectsOutOfRangeAdapter)
{
    Fixture f;
    EXPECT_DEATH(f.mgr.acquire(10, 0), "adapter id out of range: 10");
    EXPECT_DEATH(f.mgr.isResident(-1), "adapter id out of range: -1");
}
