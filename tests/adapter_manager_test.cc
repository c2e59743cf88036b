/**
 * @file
 * Unit tests for the S-LoRA baseline adapter manager: fetch-on-demand,
 * async prefetch for queued requests, and discard-on-idle.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "gpu/gpu_memory.h"
#include "gpu/pcie_link.h"
#include "model/adapter.h"
#include "model/llm.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/simulator.h"
#include "test_util.h"

using namespace chameleon;

namespace {

struct Fixture
{
    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), 10};
    gpu::GpuMemory mem{48ll << 30, 0, 0};
    gpu::PcieLink link{simulator, [](std::int64_t bytes) {
                           return sim::fromMillis(
                               static_cast<double>(bytes) / 1e7); // 10 GB/s
                       }};
    serving::SLoraAdapterManager mgr{pool, mem, link};
};

} // namespace

TEST(SLoraManager, AcquireLoadsAndBecomesResident)
{
    Fixture f;
    EXPECT_FALSE(f.mgr.isResident(0));
    const auto ready = f.mgr.acquire(0, f.simulator.now());
    EXPECT_GT(ready, 0);
    EXPECT_GT(f.mem.adapterInUseBytes(), 0);
    f.simulator.run();
    EXPECT_TRUE(f.mgr.isResident(0));
}

TEST(SLoraManager, DiscardOnIdle)
{
    Fixture f;
    f.mgr.acquire(0, 0);
    f.simulator.run();
    ASSERT_TRUE(f.mgr.isResident(0));
    f.mgr.release(0);
    // No running or queued reference: memory returned immediately.
    EXPECT_FALSE(f.mgr.isResident(0));
    EXPECT_EQ(f.mem.adapterInUseBytes(), 0);
    EXPECT_EQ(f.mgr.cachedBytes(), 0);
}

TEST(SLoraManager, SharedAdapterSurvivesUntilLastRelease)
{
    Fixture f;
    f.mgr.acquire(3, 0);
    f.mgr.acquire(3, 0);
    f.simulator.run();
    f.mgr.release(3);
    EXPECT_TRUE(f.mgr.isResident(3)); // still one user
    f.mgr.release(3);
    EXPECT_FALSE(f.mgr.isResident(3));
}

TEST(SLoraManager, QueuedReferencePinsAdapter)
{
    Fixture f;
    f.mgr.onRequestQueued(5, 0); // prefetch starts
    f.simulator.run();
    EXPECT_TRUE(f.mgr.isResident(5));
    f.mgr.onRequestDequeued(5);
    EXPECT_FALSE(f.mgr.isResident(5)); // nothing references it anymore
}

TEST(SLoraManager, PrefetchOverlapsWithQueueing)
{
    Fixture f;
    f.mgr.onRequestQueued(2, 0);
    f.simulator.run(); // transfer completes while request waits
    const auto ready = f.mgr.acquire(2, f.simulator.now());
    EXPECT_EQ(ready, f.simulator.now()); // no load on the critical path
    f.mgr.onRequestDequeued(2);
}

TEST(SLoraManager, HitMissAccountingAtArrival)
{
    Fixture f;
    f.mgr.onRequestQueued(1, 0); // miss: not resident at arrival
    f.simulator.run();
    f.mgr.onRequestQueued(1, f.simulator.now()); // hit: prefetched earlier
    EXPECT_EQ(f.mgr.misses(), 1);
    EXPECT_EQ(f.mgr.hits(), 1);
    f.mgr.onRequestDequeued(1);
    f.mgr.onRequestDequeued(1);
}

TEST(SLoraManager, AcquireFailsWhenMemoryExhausted)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 10);
    // Room for almost nothing: rank-8 adapter is ~16.8 MB.
    gpu::GpuMemory mem(8ll << 20, 0, 0);
    gpu::PcieLink link(simulator,
                       [](std::int64_t) { return sim::fromMillis(1.0); });
    serving::SLoraAdapterManager mgr(pool, mem, link);
    EXPECT_EQ(mgr.acquire(0, 0), sim::kTimeNever);
    EXPECT_FALSE(mgr.canMakeResident(0));
    EXPECT_FALSE(mgr.tryFreeMemory(16ll << 20)); // nothing to evict
}

TEST(SLoraManager, SchedulingCycleRetriesFailedPrefetch)
{
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 10);
    gpu::GpuMemory mem(20ll << 20, 0, 0); // fits one rank-8 adapter
    gpu::PcieLink link(simulator,
                       [](std::int64_t) { return sim::fromMillis(1.0); });
    serving::SLoraAdapterManager mgr(pool, mem, link);
    ASSERT_NE(mgr.acquire(0, 0), sim::kTimeNever); // occupies memory
    mgr.onRequestQueued(1, 0);                     // prefetch fails: full
    simulator.run();
    EXPECT_FALSE(mgr.isResident(1));
    mgr.release(0); // frees memory
    mgr.onSchedulingCycle({1}, simulator.now());
    simulator.run();
    EXPECT_TRUE(mgr.isResident(1)); // retry succeeded
}

TEST(SLoraManager, ReclaimRunsInIdOrder)
{
    Fixture f;
    // Prefetched for queued requests: three idle, reclaimable adapters
    // (one rank 8, two rank 16).
    for (model::AdapterId id : {1, 2, 3})
        f.mgr.onRequestQueued(id, f.simulator.now());
    f.simulator.run();
    for (model::AdapterId id : {1, 2, 3})
        ASSERT_TRUE(f.mgr.isResident(id));
    // One byte short: a single reclaim suffices, and it is the lowest id.
    ASSERT_TRUE(f.mgr.tryFreeMemory(f.mem.freeBytes() + 1));
    EXPECT_FALSE(f.mgr.isResident(1));
    EXPECT_TRUE(f.mgr.isResident(2));
    EXPECT_TRUE(f.mgr.isResident(3));
}

TEST(SLoraManager, QueuedNotResidentMatchesScanUnderChurn)
{
    // The S-LoRA twin of the cache manager's walk: queue/dequeue,
    // acquire/release, prefetch retries and reclaims on a device tight
    // enough that queued prefetches fail. After every step the O(1)
    // count of queued adapters that are neither resident nor loading
    // must equal the scan over reported residency transitions, and a
    // scheduling cycle the manager declared it does not need must start
    // no transfer.
    sim::Simulator simulator;
    model::AdapterPool pool(model::llama7B(), 10);
    gpu::GpuMemory mem(400ll << 20, 0, 0);
    gpu::PcieLink link(simulator,
                       [](std::int64_t) { return sim::fromMillis(4.0); });
    serving::SLoraAdapterManager mgr(pool, mem, link);
    const int n = pool.size();
    testutil::ResidencyLog log(n);
    mgr.setResidencyListener(&log, 0);
    std::vector<int> running(static_cast<std::size_t>(n), 0);
    std::vector<int> queued(static_cast<std::size_t>(n), 0);
    std::int64_t kv = 0;
    std::mt19937_64 rng(20241020);
    int skippableCycles = 0;
    int neededSteps = 0;
    int queuedReclaims = 0;

    for (int step = 0; step < 4000; ++step) {
        const auto id = static_cast<model::AdapterId>(rng() % n);
        const auto i = static_cast<std::size_t>(id);
        const auto now = simulator.now();
        switch (rng() % 8) {
          case 0:
            mgr.onRequestQueued(id, now);
            ++queued[i];
            break;
          case 1:
            if (queued[i] > 0) {
                mgr.onRequestDequeued(id);
                --queued[i];
            }
            break;
          case 2:
            if (mgr.acquire(id, now) != sim::kTimeNever)
                ++running[i];
            break;
          case 3:
            if (running[i] > 0) {
                mgr.release(id);
                --running[i];
            }
            break;
          case 4: {
            std::vector<model::AdapterId> ids;
            for (model::AdapterId q = 0; q < n; ++q) {
                for (int k = 0; k < queued[static_cast<std::size_t>(q)]; ++k)
                    ids.push_back(q);
            }
            const bool needed = mgr.needsQueuedAdapters();
            const auto transfers = link.totalTransfers();
            mgr.onSchedulingCycle(ids, now);
            if (!needed) {
                ASSERT_EQ(link.totalTransfers(), transfers)
                    << "step " << step;
                ++skippableCycles;
            }
            break;
          }
          case 5: {
            // KV growth reclaims prefetched adapters, queued ones too.
            const auto bytes =
                static_cast<std::int64_t>(rng() % (120ll << 20));
            const auto before = log.queuedNotResident(queued);
            if (mgr.tryFreeMemory(bytes) && mem.tryAllocKv(bytes))
                kv += bytes;
            queuedReclaims += log.queuedNotResident(queued) > before;
            break;
          }
          case 6:
            mem.freeKv(kv);
            kv = 0;
            break;
          case 7:
            simulator.runUntil(
                now + sim::fromMillis(static_cast<double>(rng() % 40)));
            break;
        }
        const std::int64_t expected = log.queuedNotResident(queued);
        ASSERT_EQ(mgr.queuedNotResident(), expected) << "step " << step;
        ASSERT_EQ(mgr.needsQueuedAdapters(), expected > 0)
            << "step " << step;
        neededSteps += expected > 0 ? 1 : 0;
    }
    EXPECT_GT(neededSteps, 0);
    EXPECT_GT(skippableCycles, 0);
    EXPECT_GT(queuedReclaims, 0);
}
