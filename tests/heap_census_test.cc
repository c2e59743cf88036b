/**
 * @file
 * Whole-run heap census: the bytes a run keeps per served request.
 *
 * This executable replaces the global operator new and delete with
 * counting ones, so it sees every allocation the simulator makes. Each
 * case runs Runner::run at two trace lengths under the same load and
 * bounds the slope of the peak live heap: (peak at the longer length -
 * peak at the shorter) / the added requests. Fixed costs (the adapter
 * pool, engines, caches, in-flight state at a steady load) cancel in
 * the difference; what is left is what the run holds per request, at
 * the worst instant: the trace entry, the record, and whatever the
 * report pass keeps live beside them. Vectors that grow by doubling
 * with the run (each engine's TBT samples, its memory series) add
 * their slack too, which moves with where a length falls between two
 * powers of two: the bound holds for these traces, not for any.
 *
 * The bound, 250 B per served request, sits between two readings of
 * these cases: 233 and 221 B with 88-byte records and a tenant pass
 * that holds one sample vector at a time, against 273 and 261 B with
 * 104-byte records and three trackers per tenant live beside the run's
 * four.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "chameleon/system.h"
#include "chameleon/system_registry.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "workload/trace_gen.h"

namespace {

/** Live and peak heap bytes over every operator new in the process. */
std::atomic<std::int64_t> liveBytes{0};
std::atomic<std::int64_t> peakBytes{0};

/** Room before each block for its size; keeps the block 16-aligned. */
constexpr std::size_t kHeader = 16;

void *
countedAlloc(std::size_t size)
{
    void *base = std::malloc(size + kHeader);
    if (base == nullptr)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(base) = size;
    const std::int64_t live =
        liveBytes.fetch_add(static_cast<std::int64_t>(size)) +
        static_cast<std::int64_t>(size);
    std::int64_t peak = peakBytes.load();
    while (live > peak && !peakBytes.compare_exchange_weak(peak, live)) {
    }
    return static_cast<char *>(base) + kHeader;
}

void
countedFree(void *block) noexcept
{
    if (block == nullptr)
        return;
    char *base = static_cast<char *>(block) - kHeader;
    liveBytes.fetch_sub(
        static_cast<std::int64_t>(*reinterpret_cast<std::size_t *>(base)));
    std::free(base);
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *block) noexcept { countedFree(block); }
void operator delete[](void *block) noexcept { countedFree(block); }
void operator delete(void *block, std::size_t) noexcept { countedFree(block); }
void operator delete[](void *block, std::size_t) noexcept
{
    countedFree(block);
}

using namespace chameleon;

namespace {

/** A run's request count and its peak live heap over the live heap
 * before the trace was generated. */
struct Census
{
    std::int64_t requests = 0;
    std::int64_t peakBytes = 0;
};

/**
 * Generate a `seconds`-long trace at `rps` and run it on `replicas`
 * Chameleon replicas (Llama-7B on A40s, JSQ routing), through the
 * report; every request must finish.
 */
Census
census(int replicas, double rps, double seconds)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = replicas;
    spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
    core::Runner runner(spec, &pool);
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = rps;
    wl.durationSeconds = seconds;
    wl.numAdapters = 100;
    wl.seed = 6;

    const std::int64_t before = liveBytes.load();
    peakBytes.store(before);
    Census out;
    {
        const workload::Trace trace =
            workload::TraceGenerator(wl, &pool).generate();
        const core::RunReport report = runner.run(trace);
        out.requests = static_cast<std::int64_t>(trace.size());
        EXPECT_EQ(report.stats.finished, out.requests);
    }
    out.peakBytes = peakBytes.load() - before;
    return out;
}

/** Peak bytes a run holds per served request, at most. */
constexpr double kMaxBytesPerRequest = 250.0;

/** Bytes per added request between a run and one twice as long. */
double
slope(int replicas, double rps, double seconds)
{
    const Census shorter = census(replicas, rps, seconds);
    const Census longer = census(replicas, rps, 2.0 * seconds);
    EXPECT_GT(longer.requests, shorter.requests);
    const double bytes =
        static_cast<double>(longer.peakBytes - shorter.peakBytes) /
        static_cast<double>(longer.requests - shorter.requests);
    std::printf("%d replica(s), %.0f RPS: %lld -> %lld requests, peak "
                "%lld -> %lld B, %.1f B per added request\n",
                replicas, rps, static_cast<long long>(shorter.requests),
                static_cast<long long>(longer.requests),
                static_cast<long long>(shorter.peakBytes),
                static_cast<long long>(longer.peakBytes), bytes);
    return bytes;
}

} // namespace

TEST(HeapCensus, CountsEveryAllocation)
{
    // A direct call, which the compiler may not elide as it may a
    // new-expression.
    const std::int64_t before = liveBytes.load();
    void *block = ::operator new(800);
    EXPECT_EQ(liveBytes.load() - before, 800);
    ::operator delete(block);
    EXPECT_EQ(liveBytes.load(), before);
}

TEST(HeapCensus, OneReplicaPeakPerServedRequest)
{
    EXPECT_LE(slope(1, 6.0, 600.0), kMaxBytesPerRequest);
}

TEST(HeapCensus, FourReplicaPeakPerServedRequest)
{
    EXPECT_LE(slope(4, 24.0, 600.0), kMaxBytesPerRequest);
}
