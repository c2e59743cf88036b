/**
 * @file
 * Unit tests for the S-LoRA baseline adapter manager: fetch-on-demand,
 * async prefetch for queued requests, and discard-on-idle.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_memory.h"
#include "gpu/pcie_link.h"
#include "model/adapter.h"
#include "model/llm.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/simulator.h"

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
