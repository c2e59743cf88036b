/**
 * @file
 * Unit tests for the GPU device models: memory accounting, the paged KV
 * cache, and the PCIe link.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "gpu/gpu_memory.h"
#include "gpu/kv_cache.h"
#include "gpu/pcie_link.h"
#include "simkit/simulator.h"
#include "simkit/time.h"

namespace gpu = chameleon::gpu;
namespace sim = chameleon::sim;

namespace {
constexpr std::int64_t kGiB = 1024ll * 1024 * 1024;
}

// ------------------------------------------------------------ GpuMemory

TEST(GpuMemory, InvariantHolds)
{
    gpu::GpuMemory mem(48 * kGiB, 14 * kGiB, 2 * kGiB);
    EXPECT_EQ(mem.freeBytes(), 32 * kGiB);
    ASSERT_TRUE(mem.tryAllocKv(10 * kGiB));
    ASSERT_TRUE(mem.tryAllocAdapterInUse(4 * kGiB));
    ASSERT_TRUE(mem.tryAllocAdapterCache(8 * kGiB));
    EXPECT_EQ(mem.freeBytes(), 10 * kGiB);
    EXPECT_EQ(mem.idleBytes(), 18 * kGiB); // free + cache
    mem.freeKv(10 * kGiB);
    mem.freeAdapterInUse(4 * kGiB);
    mem.freeAdapterCache(8 * kGiB);
    EXPECT_EQ(mem.freeBytes(), 32 * kGiB);
}

TEST(GpuMemory, AllocFailsWithoutRoomAndHasNoSideEffects)
{
    gpu::GpuMemory mem(10 * kGiB, 4 * kGiB, 2 * kGiB);
    EXPECT_FALSE(mem.tryAllocKv(5 * kGiB));
    EXPECT_EQ(mem.kvBytes(), 0);
    EXPECT_TRUE(mem.tryAllocKv(4 * kGiB));
    EXPECT_FALSE(mem.tryAllocAdapterCache(1));
}

TEST(GpuMemory, CacheInUseTransfers)
{
    gpu::GpuMemory mem(10 * kGiB, 0, 0);
    ASSERT_TRUE(mem.tryAllocAdapterInUse(2 * kGiB));
    mem.moveInUseToCache(2 * kGiB);
    EXPECT_EQ(mem.adapterInUseBytes(), 0);
    EXPECT_EQ(mem.adapterCacheBytes(), 2 * kGiB);
    mem.moveCacheToInUse(2 * kGiB);
    EXPECT_EQ(mem.adapterInUseBytes(), 2 * kGiB);
    EXPECT_EQ(mem.adapterCacheBytes(), 0);
    // Moves never change the free total.
    EXPECT_EQ(mem.freeBytes(), 8 * kGiB);
}

TEST(GpuMemory, ModelMustFit)
{
    EXPECT_DEATH(gpu::GpuMemory(1 * kGiB, 2 * kGiB, 0), "does not fit");
}

// -------------------------------------------------------------- KvCache

TEST(KvCache, PageRounding)
{
    gpu::GpuMemory mem(1 * kGiB, 0, 0);
    gpu::KvCache kv(mem, 1024, 16);
    EXPECT_EQ(kv.bytesForTokens(1), 16 * 1024);
    EXPECT_EQ(kv.bytesForTokens(16), 16 * 1024);
    EXPECT_EQ(kv.bytesForTokens(17), 32 * 1024);
    EXPECT_EQ(kv.bytesForTokens(0), 0);
}

TEST(KvCache, GrowWithinPageIsFree)
{
    gpu::GpuMemory mem(1 * kGiB, 0, 0);
    gpu::KvCache kv(mem, 1024, 16);
    gpu::KvReservation res;
    ASSERT_TRUE(kv.tryReserve(res, 10));
    const auto bytes_before = mem.kvBytes();
    ASSERT_TRUE(kv.tryReserve(res, 16)); // same page
    EXPECT_EQ(mem.kvBytes(), bytes_before);
    ASSERT_TRUE(kv.tryReserve(res, 17)); // new page
    EXPECT_GT(mem.kvBytes(), bytes_before);
    EXPECT_EQ(res.tokens, 17);
    EXPECT_EQ(res.pages, 2);
}

TEST(KvCache, ReleaseReturnsAllPages)
{
    gpu::GpuMemory mem(1 * kGiB, 0, 0);
    gpu::KvCache kv(mem, 1024, 16);
    gpu::KvReservation res;
    ASSERT_TRUE(kv.tryReserve(res, 100));
    kv.release(res);
    EXPECT_EQ(mem.kvBytes(), 0);
    EXPECT_EQ(res.tokens, 0);
    EXPECT_EQ(res.pages, 0);
    kv.release(res); // double release is a no-op
    EXPECT_EQ(mem.kvBytes(), 0);
}

TEST(KvCache, FailureLeavesReservationIntact)
{
    gpu::GpuMemory mem(64 * 1024, 0, 0);
    gpu::KvCache kv(mem, 1024, 16);
    gpu::KvReservation res;
    ASSERT_TRUE(kv.tryReserve(res, 32));   // 32 KiB
    EXPECT_FALSE(kv.tryReserve(res, 128)); // would need 128 KiB
    EXPECT_EQ(res.tokens, 32);
    EXPECT_EQ(res.pages, 2);
    EXPECT_EQ(kv.totalBytes(), 32 * 1024);
}

TEST(KvCache, FragmentationAccounting)
{
    gpu::GpuMemory mem(1 * kGiB, 0, 0);
    gpu::KvCache kv(mem, 1024, 16);
    gpu::KvReservation res;
    ASSERT_TRUE(kv.tryReserve(res, 1)); // 15 tokens of slack
    EXPECT_EQ(kv.fragmentationBytes(), 15 * 1024);
}

TEST(KvCache, RejectsTokenCountsBeyondInt32)
{
    gpu::GpuMemory mem(1 * kGiB, 0, 0);
    gpu::KvCache kv(mem, 1, 16);
    gpu::KvReservation res;
    EXPECT_DEATH(kv.tryReserve(res, std::int64_t{1} << 31), "int32");
    EXPECT_DEATH(kv.tryReserve(res, -1), "negative");
}

TEST(KvCache, HandleMatchesReferenceUnderChurn)
{
    // A seeded walk over 64 reservations on a device too small to hold
    // them all, checked after every step against a per-request
    // reference built from bytesForTokens: grow, re-reserve a smaller
    // count, fail on a full device, and release (also twice).
    constexpr std::int64_t kBytesPerToken = 1024;
    constexpr int kRequests = 64;
    gpu::GpuMemory mem(2048 * kBytesPerToken, 0, 0);
    gpu::KvCache kv(mem, kBytesPerToken, 16);
    struct Reference
    {
        std::int64_t tokens = 0;
        std::int64_t bytes = 0;
    };
    std::vector<gpu::KvReservation> handles(kRequests);
    std::vector<Reference> ref(kRequests);
    std::mt19937_64 rng(7);
    int grows = 0, shrinks = 0, failures = 0, releases = 0;
    for (int step = 0; step < 10000; ++step) {
        const std::size_t i = rng() % kRequests;
        auto &h = handles[i];
        auto &r = ref[i];
        const auto action = rng() % 8;
        if (action < 2) {
            kv.release(h);
            if (action == 1)
                kv.release(h); // a second release is a no-op
            r = Reference{};
            ++releases;
        } else {
            const std::int64_t tokens =
                action == 2 ? static_cast<std::int64_t>(rng() % 8)
                            : r.tokens + static_cast<std::int64_t>(
                                             rng() % 40);
            const std::int64_t want = kv.bytesForTokens(tokens);
            const bool fits = want <= r.bytes ||
                              want - r.bytes <= mem.freeBytes();
            ASSERT_EQ(kv.tryReserve(h, tokens), fits) << "step " << step;
            if (!fits) {
                ++failures;
            } else if (tokens < r.tokens) {
                ++shrinks;
            } else {
                ++grows;
                r.tokens = tokens;
                r.bytes = std::max(r.bytes, want);
            }
        }
        std::int64_t bytes = 0, frag = 0;
        for (const auto &e : ref) {
            bytes += e.bytes;
            frag += e.bytes - e.tokens * kBytesPerToken;
        }
        ASSERT_EQ(h.tokens, r.tokens) << "step " << step;
        ASSERT_EQ(h.pages * 16 * kBytesPerToken, r.bytes) << "step " << step;
        ASSERT_EQ(mem.kvBytes(), bytes) << "step " << step;
        ASSERT_EQ(kv.totalBytes(), bytes) << "step " << step;
        ASSERT_EQ(kv.fragmentationBytes(), frag) << "step " << step;
    }
    // The walk exercised every branch.
    EXPECT_GT(grows, 1000);
    EXPECT_GT(shrinks, 100);
    EXPECT_GT(failures, 100);
    EXPECT_GT(releases, 1000);
}

// ------------------------------------------------------------- PcieLink

TEST(PcieLink, FifoQueueing)
{
    sim::Simulator s;
    gpu::PcieLink link(s, [](std::int64_t bytes) {
        return sim::fromMillis(static_cast<double>(bytes) / 1e6); // 1 GB/s
    });
    std::vector<int> done;
    link.enqueue(10'000'000, [&] { done.push_back(1); }); // 10 ms
    link.enqueue(5'000'000, [&] { done.push_back(2); });  // +5 ms
    EXPECT_TRUE(link.busy());
    s.run();
    EXPECT_EQ(done, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.now(), sim::fromMillis(15.0));
    EXPECT_EQ(link.totalBytes(), 15'000'000);
    EXPECT_EQ(link.totalTransfers(), 2);
}

TEST(PcieLink, EarliestCompletionAccountsForBacklog)
{
    sim::Simulator s;
    gpu::PcieLink link(s, [](std::int64_t bytes) {
        return sim::fromMillis(static_cast<double>(bytes) / 1e6);
    });
    const auto t1 = link.enqueue(10'000'000, [] {});
    EXPECT_EQ(t1, sim::fromMillis(10.0));
    EXPECT_EQ(link.earliestCompletion(5'000'000), sim::fromMillis(15.0));
}

TEST(PcieLink, UtilisationFractionOfElapsed)
{
    sim::Simulator s;
    gpu::PcieLink link(s, [](std::int64_t) { return sim::fromMillis(10.0); });
    link.enqueue(1, [] {});
    s.run();
    s.runUntil(sim::fromMillis(40.0));
    EXPECT_NEAR(link.utilisation(), 0.25, 1e-9);
}
