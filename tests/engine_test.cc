/**
 * @file
 * Integration tests for the serving engine: continuous batching, TTFT/
 * TBT accounting, adapter-load stalls, KV reservation, and squashing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "simkit/distributions.h"
#include "simkit/rng.h"
#include "test_util.h"
#include "workload/trace.h"

using namespace chameleon;
using testutil::BaselineEngine;

namespace {

workload::Request
mkReq(std::int64_t id, sim::SimTime arrival, std::int64_t in,
      std::int64_t out, model::AdapterId adapter = model::kNoAdapter)
{
    return workload::Request{id, arrival, in, out, adapter};
}

} // namespace

TEST(Engine, SingleBaseRequestMatchesIsolatedCost)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 142, 1));
    f.simulator.run();
    const auto &stats = f.engine->stats();
    ASSERT_EQ(stats.finished, 1);
    // TTFT should match the cost model's isolated prefill time closely
    // (one iteration, no queueing, no adapter).
    const auto expected =
        f.engine->costModel().isolatedTtft(142, 0, 0, false);
    EXPECT_NEAR(stats.ttft.p50(), sim::toSeconds(expected),
                0.05 * sim::toSeconds(expected));
}

TEST(Engine, SingleAdapterRequestPaysLoadOnCriticalPath)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 142, 1, 0)); // adapter 0 (rank 8)
    f.simulator.run();
    const auto &stats = f.engine->stats();
    ASSERT_EQ(stats.finished, 1);
    const auto &rec = stats.records.front();
    EXPECT_GT(rec.adapterStall, 0); // transfer was on the critical path
    const auto isolated = f.engine->costModel().isolatedTtft(
        142, f.pool.spec(0).rank, f.pool.spec(0).bytes, true);
    EXPECT_NEAR(static_cast<double>(rec.ttft),
                static_cast<double>(isolated),
                0.10 * static_cast<double>(isolated));
}

TEST(Engine, EmitsAllTokensAndFrees)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 16, 20, 2));
    f.simulator.run();
    const auto &stats = f.engine->stats();
    ASSERT_EQ(stats.finished, 1);
    EXPECT_EQ(stats.records.front().outputTokens, 20);
    // All resources returned.
    EXPECT_EQ(f.engine->memory().kvBytes(), 0);
    EXPECT_EQ(f.engine->memory().adapterInUseBytes(), 0);
    EXPECT_EQ(f.engine->runningCount(), 0u);
    EXPECT_EQ(f.engine->outstanding(), 0);
}

TEST(Engine, TbtTracksDecodeIterations)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 16, 50));
    f.simulator.run();
    const auto &stats = f.engine->stats();
    // Single-request decode iteration on A40 is ~25 ms.
    EXPECT_NEAR(stats.tbt.p50(), 25.5, 4.0);
    EXPECT_GE(stats.iterations, 50);
}

TEST(Engine, ContinuousBatchingOverlapsRequests)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 16, 200));
    f.engine->submit(mkReq(2, sim::fromSeconds(0.5), 16, 20));
    f.simulator.run();
    const auto &stats = f.engine->stats();
    ASSERT_EQ(stats.finished, 2);
    // Request 2 finishes long before request 1 (iteration-level
    // scheduling admits and retires mid-flight).
    const auto &r1 = stats.records.back();
    const auto &r2 = stats.records.front();
    EXPECT_EQ(r2.id, 2);
    EXPECT_LT(r2.arrival + r2.e2e, r1.arrival + r1.e2e);
}

TEST(Engine, SharedAdapterLoadsOnce)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 16, 50, 3));
    f.engine->submit(mkReq(2, sim::fromMillis(100.0), 16, 50, 3));
    f.simulator.run();
    EXPECT_EQ(f.engine->pcieLink().totalTransfers(), 1);
    EXPECT_EQ(f.engine->stats().finished, 2);
}

TEST(Engine, KvReservationIsConservativeForBaselines)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 16, 2));
    // Drive exactly one iteration so the request is admitted.
    f.simulator.runUntil(sim::fromMillis(1.0));
    const auto reserved = f.engine->findRequest(1)->kv.tokens;
    EXPECT_GE(reserved, 16 + f.engine->config().maxNewTokens);
}

TEST(Engine, PredictedReservationUsesPredictor)
{
    auto cfg = BaselineEngine::defaultConfig();
    cfg.predictedReservation = true;
    BaselineEngine f(cfg);
    f.engine->submit(mkReq(1, 0, 16, 40)); // perfect predictor
    f.simulator.runUntil(sim::fromMillis(1.0));
    const auto reserved = f.engine->findRequest(1)->kv.tokens;
    EXPECT_LT(reserved, 16 + cfg.maxNewTokens);
    EXPECT_GE(reserved, 16 + 40 - 16); // bucket midpoint may undershoot
    f.simulator.run();
    EXPECT_EQ(f.engine->stats().finished, 1);
}

TEST(Engine, ChunkedPrefillSpreadsLongPrompts)
{
    auto cfg = BaselineEngine::defaultConfig();
    cfg.prefillChunkTokens = 64;
    BaselineEngine chunked(cfg);
    chunked.engine->submit(mkReq(1, 0, 512, 1));
    chunked.simulator.run();

    BaselineEngine whole;
    whole.engine->submit(mkReq(1, 0, 512, 1));
    whole.simulator.run();

    // Chunked prefill needs several iterations for one prompt and a
    // slightly higher TTFT (per-iteration overheads), cf. §3.3.
    EXPECT_GE(chunked.engine->stats().iterations, 8);
    EXPECT_EQ(whole.engine->stats().iterations, 1);
    EXPECT_GT(chunked.engine->stats().ttft.p50(),
              whole.engine->stats().ttft.p50());
}

TEST(Engine, SquashResetsProgressAndRequeues)
{
    BaselineEngine f;
    f.engine->submit(mkReq(1, 0, 16, 100, 1));
    f.simulator.runUntil(sim::fromSeconds(1.0)); // mid-decode
    ASSERT_EQ(f.engine->runningCount(), 1u);
    serving::LiveRequest *victim = f.engine->findRequest(1);
    ASSERT_NE(victim, nullptr);
    const auto generated_before = f.engine->generated(*victim);
    EXPECT_GT(generated_before, 0);

    f.engine->squash(victim);
    EXPECT_EQ(victim->phase, serving::RequestPhase::Waiting);
    EXPECT_EQ(f.engine->generated(*victim), 0);
    EXPECT_EQ(victim->prefilled, 0);
    EXPECT_TRUE(f.engine->scheduler().hasWaiting());
    EXPECT_EQ(f.engine->memory().kvBytes(), 0);

    // The squashed request re-executes to completion.
    f.simulator.run();
    EXPECT_EQ(f.engine->stats().finished, 1);
    EXPECT_EQ(f.engine->stats().records.front().outputTokens, 100);
}

TEST(Engine, EstimateMemoryFreeCachedMatchesFresh)
{
    // The engine keeps its sorted completion projection across calls at
    // one clock reading, decode step and batch. At stops throughout a
    // loaded run, and again after a squash changes the batch at the same
    // instant, every answer must equal a projection built fresh from the
    // running requests' public state.
    BaselineEngine f;
    sim::Rng rng(11);
    sim::SimTime t = 0;
    constexpr int kRequests = 300;
    for (int i = 0; i < kRequests; ++i) {
        t += sim::fromSeconds(sim::sampleExponential(rng, 12.0));
        const auto in = 8 + static_cast<std::int64_t>(rng.nextBelow(400));
        const auto out = 2 + static_cast<std::int64_t>(rng.nextBelow(300));
        f.engine->submit(mkReq(i, t, in, out,
                               static_cast<model::AdapterId>(
                                   rng.nextBelow(10))));
    }
    auto fresh = [&](std::int64_t bytes) {
        std::vector<std::pair<sim::SimTime, std::int64_t>> frees;
        for (int id = 0; id < kRequests; ++id) {
            const serving::LiveRequest *r = f.engine->findRequest(id);
            if (r == nullptr || r->phase != serving::RequestPhase::Running)
                continue; // finished: its slot was recycled
            const std::int64_t done = f.engine->generated(*r);
            const std::int64_t remaining =
                std::max<std::int64_t>(1, r->predictedOutput - done);
            frees.emplace_back(
                f.simulator.now() + remaining * f.engine->avgIterTime(),
                f.engine->kvCache().bytesForTokens(r->req.inputTokens +
                                                   done) +
                    r->adapterBytes);
        }
        std::sort(frees.begin(), frees.end());
        std::int64_t acc = f.engine->memory().freeBytes();
        for (const auto &[when, freed] : frees) {
            acc += freed;
            if (acc >= bytes)
                return when;
        }
        return sim::kTimeNever;
    };
    auto expectMatches = [&](const char *when) {
        const std::int64_t free = f.engine->memory().freeBytes();
        const std::int64_t targets[] = {free / 2, free + 1,
                                        free + (std::int64_t{256} << 20),
                                        free + (std::int64_t{2} << 30),
                                        std::int64_t{1} << 50};
        for (std::int64_t bytes : targets) {
            ASSERT_EQ(f.engine->estimateMemoryFreeTime(bytes), fresh(bytes))
                << when << " at " << f.simulator.now() << ", bytes "
                << bytes;
        }
    };
    int squashes = 0;
    int busyStops = 0;
    for (sim::SimTime stop = 0; stop < t; stop += sim::fromMillis(97.0)) {
        f.simulator.runUntil(stop);
        expectMatches("stop");
        if (f.engine->runningCount() < 2)
            continue;
        ++busyStops;
        // Squash a running request now and then: same clock and decode
        // step, new batch.
        if (rng.nextBelow(4) == 0) {
            for (int id = 0; id < kRequests; ++id) {
                serving::LiveRequest *r = f.engine->findRequest(id);
                if (r != nullptr &&
                    r->phase == serving::RequestPhase::Running) {
                    f.engine->squash(r);
                    ++squashes;
                    break;
                }
            }
            expectMatches("after squash");
        }
    }
    f.simulator.run();
    EXPECT_EQ(f.engine->stats().finished, kRequests);
    EXPECT_GT(busyStops, 20);
    EXPECT_GT(squashes, 0);
}

TEST(Engine, DrainsCleanlyUnderLoad)
{
    BaselineEngine f;
    sim::Rng rng(9);
    sim::SimTime t = 0;
    for (int i = 0; i < 200; ++i) {
        t += sim::fromSeconds(sim::sampleExponential(rng, 10.0));
        const auto in = 8 + static_cast<std::int64_t>(rng.nextBelow(200));
        const auto out = 1 + static_cast<std::int64_t>(rng.nextBelow(100));
        const auto adapter =
            static_cast<model::AdapterId>(rng.nextBelow(10));
        f.engine->submit(mkReq(i, t, in, out, adapter));
    }
    f.simulator.run();
    const auto &stats = f.engine->stats();
    EXPECT_EQ(stats.finished, 200);
    EXPECT_EQ(f.engine->memory().kvBytes(), 0);
    EXPECT_EQ(f.engine->memory().adapterInUseBytes(), 0);
    EXPECT_EQ(f.engine->kvCache().totalBytes(), 0);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run_once = [] {
        BaselineEngine f;
        sim::Rng rng(4);
        sim::SimTime t = 0;
        for (int i = 0; i < 100; ++i) {
            t += sim::fromSeconds(sim::sampleExponential(rng, 8.0));
            f.engine->submit(mkReq(i, t,
                                   8 + static_cast<std::int64_t>(
                                           rng.nextBelow(100)),
                                   1 + static_cast<std::int64_t>(
                                           rng.nextBelow(50)),
                                   static_cast<model::AdapterId>(
                                       rng.nextBelow(10))));
        }
        f.simulator.run();
        return f.engine->stats().e2e.sorted();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, MemorySamplesRecorded)
{
    BaselineEngine f;
    for (int i = 0; i < 20; ++i)
        f.engine->submit(mkReq(i, sim::fromSeconds(i), 64, 40, i % 10));
    f.simulator.run();
    EXPECT_FALSE(f.engine->stats().memTotalUsed.empty());
    EXPECT_FALSE(f.engine->stats().memKv.empty());
}
