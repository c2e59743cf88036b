/**
 * @file
 * Unit tests for the Chameleon scheduler building blocks (WRS, K-means,
 * quota assignment) and the multi-level-queue scheduler itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>

#include "simkit/rng.h"

#include "chameleon/kmeans.h"
#include "chameleon/mlq_scheduler.h"
#include "chameleon/quota.h"
#include "chameleon/wrs.h"
#include "model/llm.h"
#include "test_util.h"

using namespace chameleon;
using testutil::FakeAdmission;
using testutil::liveRequest;

// ------------------------------------------------------------------ WRS

TEST(Wrs, Degree2MultipliesAdapterTerm)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::WrsCalculator wrs(&pool);
    const auto small_adapter = pool.spec(0).bytes; // rank 8
    const auto large_adapter = pool.spec(9).bytes; // rank 128
    const double lo = wrs.compute(128, 128, small_adapter);
    const double hi = wrs.compute(128, 128, large_adapter);
    // Same lengths: the rank-128 adapter scales the size by 16x.
    EXPECT_NEAR(hi / lo, 16.0, 1e-6);
}

TEST(Wrs, InputOutputWeights)
{
    core::WrsCalculator wrs(nullptr); // no adapter term
    const double in_heavy = wrs.compute(256, 0, 0);
    const double out_heavy = wrs.compute(0, 256, 0);
    // B (0.6) outweighs A (0.4) per the paper's tuning.
    EXPECT_NEAR(out_heavy / in_heavy, 0.6 / 0.4, 1e-9);
}

TEST(Wrs, OutputOnlyIgnoresInputAndAdapter)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::WrsCalculator wrs(&pool, core::WrsForm::OutputOnly);
    EXPECT_DOUBLE_EQ(wrs.compute(10, 128, pool.spec(0).bytes),
                     wrs.compute(2000, 128, pool.spec(9).bytes));
}

TEST(Wrs, RunningMaximaNormalise)
{
    core::WrsCalculator wrs(nullptr);
    const double first = wrs.compute(256, 256, 0);
    EXPECT_NEAR(first, 1.0, 1e-9); // at the floor maxima
    wrs.compute(2560, 2560, 0);    // raises the maxima 10x
    const double later = wrs.compute(256, 256, 0);
    EXPECT_NEAR(later, 0.1, 1e-9);
}

// -------------------------------------------------------------- K-means

TEST(KMeans, RecoversSeparatedClusters)
{
    std::vector<double> data;
    for (int i = 0; i < 100; ++i) {
        data.push_back(1.0 + 0.01 * i);
        data.push_back(10.0 + 0.01 * i);
        data.push_back(100.0 + 0.01 * i);
    }
    const auto result = core::kmeans1d(data, 3);
    ASSERT_EQ(result.centroids.size(), 3u);
    EXPECT_NEAR(result.centroids[0], 1.5, 0.2);
    EXPECT_NEAR(result.centroids[1], 10.5, 0.2);
    EXPECT_NEAR(result.centroids[2], 100.5, 0.2);
}

TEST(KMeans, WcssNonIncreasingInK)
{
    std::vector<double> data;
    sim::Rng rng(5);
    for (int i = 0; i < 500; ++i)
        data.push_back(rng.nextDouble() * 10.0);
    double prev = 1e18;
    for (int k = 1; k <= 4; ++k) {
        const auto r = core::kmeans1d(data, k);
        EXPECT_LE(r.wcss, prev + 1e-9);
        prev = r.wcss;
    }
}

TEST(KMeans, ElbowStopsAtTrueClusterCount)
{
    std::vector<double> data;
    for (int i = 0; i < 200; ++i) {
        data.push_back(1.0 + 0.001 * i);
        data.push_back(50.0 + 0.001 * i);
    }
    const auto chosen = core::chooseClusters(data, 4, 0.10);
    EXPECT_EQ(chosen.centroids.size(), 2u);
}

TEST(KMeans, WcssFallsStrictlyToKmax)
{
    std::vector<double> data;
    sim::Rng rng(6);
    for (int i = 0; i < 300; ++i)
        data.push_back(rng.nextDouble());
    // Each added cluster lowers the WCSS, so the paper's literal
    // "minimal WCSS" rule would always land on Kmax: the reason for
    // the elbow rule documented in src/chameleon/README.md.
    double prev = core::kmeans1d(data, 1).wcss;
    for (int k = 2; k <= core::kMlqMaxQueues; ++k) {
        const double wcss = core::kmeans1d(data, k).wcss;
        EXPECT_LT(wcss, prev) << "k " << k;
        prev = wcss;
    }
}

namespace {

// A verbatim copy of the K-means before the one-sort kernel: a sort per
// K and a first-minimum scan over every centroid per point. The
// production code must match it bit for bit.

core::KMeansResult
refKmeans1d(const std::vector<double> &data, int k, int maxIters = 64)
{
    std::vector<double> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();

    std::vector<double> centroids;
    centroids.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
        const std::size_t idx = std::min(
            n - 1, static_cast<std::size_t>((2.0 * i + 1) /
                                            (2.0 * k) * static_cast<double>(n)));
        centroids.push_back(sorted[idx]);
    }
    std::sort(centroids.begin(), centroids.end());

    std::vector<int> assign(n, 0);
    for (int iter = 0; iter < maxIters; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            int best = 0;
            double best_d = std::abs(sorted[i] - centroids[0]);
            for (int c = 1; c < k; ++c) {
                const double d = std::abs(sorted[i] - centroids[
                    static_cast<std::size_t>(c)]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (assign[i] != best) {
                assign[i] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;
        std::vector<double> sum(static_cast<std::size_t>(k), 0.0);
        std::vector<std::size_t> count(static_cast<std::size_t>(k), 0);
        for (std::size_t i = 0; i < n; ++i) {
            sum[static_cast<std::size_t>(assign[i])] += sorted[i];
            ++count[static_cast<std::size_t>(assign[i])];
        }
        for (int c = 0; c < k; ++c) {
            const auto cc = static_cast<std::size_t>(c);
            if (count[cc] > 0)
                centroids[cc] = sum[cc] / static_cast<double>(count[cc]);
        }
        std::sort(centroids.begin(), centroids.end());
    }

    core::KMeansResult result;
    result.centroids = centroids;
    for (std::size_t i = 0; i < n; ++i) {
        const double d =
            sorted[i] - centroids[static_cast<std::size_t>(assign[i])];
        result.wcss += d * d;
    }
    return result;
}

core::KMeansResult
refChooseClusters(const std::vector<double> &data, int kMax,
                  double elbowThreshold)
{
    std::vector<core::KMeansResult> results;
    for (int k = 1; k <= kMax; ++k)
        results.push_back(refKmeans1d(data, k));
    const double total = results[0].wcss;
    std::size_t chosen = results.size() - 1;
    if (total <= 0.0)
        return results[0];
    for (std::size_t i = 1; i < results.size(); ++i) {
        const double improvement =
            (results[i - 1].wcss - results[i].wcss) / total;
        if (improvement < elbowThreshold) {
            chosen = i - 1;
            break;
        }
    }
    return results[chosen];
}

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

::testing::AssertionResult
sameBits(const core::KMeansResult &got, const core::KMeansResult &want)
{
    if (bitsOf(got.wcss) != bitsOf(want.wcss)) {
        return ::testing::AssertionFailure()
               << "wcss " << got.wcss << " vs " << want.wcss;
    }
    if (got.centroids.size() != want.centroids.size()) {
        return ::testing::AssertionFailure()
               << got.centroids.size() << " centroids vs "
               << want.centroids.size();
    }
    for (std::size_t c = 0; c < got.centroids.size(); ++c) {
        if (bitsOf(got.centroids[c]) != bitsOf(want.centroids[c])) {
            return ::testing::AssertionFailure()
                   << "centroid " << c << ": " << got.centroids[c]
                   << " vs " << want.centroids[c];
        }
    }
    return ::testing::AssertionSuccess();
}

/** One seeded window of one of seven shapes (finite, no -0.0). */
std::vector<double>
kmeansWindow(sim::Rng &rng, int shape)
{
    std::size_t n = 1 + rng.nextBelow(300);
    std::vector<double> v;
    switch (shape) {
    case 0: // uniform
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(rng.nextDouble());
        break;
    case 1: { // heavy duplicates
        std::vector<double> pool(1 + rng.nextBelow(6));
        for (double &x : pool)
            x = 10.0 * rng.nextDouble();
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(pool[rng.nextBelow(pool.size())]);
        break;
    }
    case 2: // fewer points than clusters
        n = 1 + rng.nextBelow(3);
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(rng.nextDouble());
        break;
    case 3: { // values a few ulps apart
        double x = 0.25 + rng.nextDouble();
        for (std::size_t i = 0; i < n; ++i) {
            for (auto step = rng.nextBelow(3); step > 0; --step)
                x = std::nextafter(x, 2.0);
            v.push_back(x);
        }
        break;
    }
    case 4: // signed magnitudes from 2^-600 to 2^600
        for (std::size_t i = 0; i < n; ++i) {
            const int e = static_cast<int>(rng.nextBelow(1201)) - 600;
            const double sign = rng.nextBelow(2) ? 1.0 : -1.0;
            v.push_back(sign * std::ldexp(1.0 + rng.nextDouble(), e));
        }
        break;
    case 5: // small values beside 2^600: distances round into ties
        for (std::size_t i = 0; i < n; ++i) {
            const auto pick = rng.nextBelow(4);
            v.push_back(pick == 0   ? std::ldexp(1.0 + rng.nextDouble(), 600)
                        : pick == 1 ? -std::ldexp(1.0, 600)
                                    : rng.nextDouble());
        }
        break;
    default: // WRS-like: a few tight groups
        for (std::size_t i = 0; i < n; ++i) {
            const double centre = 0.1 * static_cast<double>(
                                            1 + rng.nextBelow(4));
            v.push_back(centre + 0.01 * rng.nextDouble());
        }
        break;
    }
    // Shuffle so the sort under test does real work.
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
    return v;
}

} // namespace

/** The one-sort kernel equals the per-K sort and first-minimum scan
 * bit for bit: centroids and WCSS, for the elbow rule over a sweep of
 * kMax and thresholds and for Lloyd runs cut short by maxIters. */
TEST(KMeans, MatchesVerbatimReference)
{
    sim::Rng rng(2020);
    constexpr int kWindows = 10500;
    constexpr int kShapes = 7;
    for (int w = 0; w < kWindows; ++w) {
        const int shape = w % kShapes;
        const std::vector<double> data = kmeansWindow(rng, shape);
        const int kMax = 1 + static_cast<int>(rng.nextBelow(4));
        const double threshold = rng.nextBelow(2) ? 0.10 : 0.01;
        ASSERT_TRUE(sameBits(core::chooseClusters(data, kMax, threshold),
                             refChooseClusters(data, kMax, threshold)))
            << "window " << w << " shape " << shape << " kMax " << kMax;
        const int k = 1 + static_cast<int>(rng.nextBelow(4));
        const int iters[] = {1, 2, 3, 64};
        const int maxIters = iters[rng.nextBelow(4)];
        ASSERT_TRUE(sameBits(core::kmeans1d(data, k, maxIters),
                             refKmeans1d(data, k, maxIters)))
            << "window " << w << " shape " << shape << " k " << k
            << " maxIters " << maxIters;
    }
}

TEST(KMeans, CutoffsAreCentroidMidpoints)
{
    const auto cutoffs = core::centroidCutoffs({1.0, 3.0, 9.0});
    ASSERT_EQ(cutoffs.size(), 2u);
    EXPECT_DOUBLE_EQ(cutoffs[0], 2.0);
    EXPECT_DOUBLE_EQ(cutoffs[1], 6.0);
}

// ---------------------------------------------------------------- quota

TEST(Quota, MinimumFollowsFormula)
{
    // Tok_min = S * D * (1/SLO + lambda).
    core::QueueLoadStats q;
    q.maxTokens = 100.0;
    q.meanServiceSeconds = 2.0;
    q.arrivalRate = 3.0;
    const auto quotas = core::assignQuotas({q}, /*slo=*/5.0, 10000);
    // Tok_min = 100 * 2 * (0.2 + 3) = 640; the rest of the pool is
    // surplus assigned proportionally (single queue: everything).
    EXPECT_EQ(quotas.size(), 1u);
    EXPECT_GE(quotas[0], 640);
    EXPECT_LE(quotas[0], 10000);
}

TEST(Quota, SurplusSplitProportionally)
{
    core::QueueLoadStats small{10.0, 0.5, 4.0};  // min = 10*0.5*4.2 = 21
    core::QueueLoadStats large{100.0, 2.0, 1.0}; // min = 100*2*1.2 = 240
    const auto quotas = core::assignQuotas({small, large}, 5.0, 5220);
    ASSERT_EQ(quotas.size(), 2u);
    // Proportional split preserves the minima ratio.
    EXPECT_NEAR(static_cast<double>(quotas[1]) /
                    static_cast<double>(quotas[0]),
                240.0 / 21.0, 0.05 * 240.0 / 21.0);
    EXPECT_LE(quotas[0] + quotas[1], 5220);
}

TEST(Quota, OversubscriptionScalesDown)
{
    core::QueueLoadStats q{1000.0, 5.0, 10.0}; // min = 1000*5*10.2 = 51000
    const auto quotas = core::assignQuotas({q, q}, 5.0, 1000);
    EXPECT_LE(quotas[0] + quotas[1], 1000);
    EXPECT_NEAR(static_cast<double>(quotas[0]),
                static_cast<double>(quotas[1]), 1.0);
}

// ------------------------------------------------------- MLQ scheduler

namespace {

core::MlqConfig
testMlqConfig()
{
    core::MlqConfig cfg;
    cfg.totalTokens = 100000;
    cfg.kvBytesPerToken = model::llama7B().kvBytesPerToken();
    cfg.warmupSamples = 10;
    return cfg;
}

} // namespace

TEST(MlqScheduler, BootstrapsWithSingleQueue)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::MlqScheduler sched(testMlqConfig(), &pool);
    EXPECT_EQ(sched.queueCount(), 1);
    auto r = liveRequest(1, 64, 64, 0, pool.spec(0).bytes, 8);
    sched.enqueue(&r);
    FakeAdmission fake;
    EXPECT_EQ(sched.selectAdmissions(fake.ctx).size(), 1u);
}

TEST(MlqScheduler, ReconfiguresIntoMultipleQueues)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::MlqScheduler sched(testMlqConfig(), &pool);
    // Feed a clearly bimodal WRS population.
    std::vector<serving::LiveRequest> reqs;
    reqs.reserve(40);
    for (int i = 0; i < 20; ++i) {
        reqs.push_back(
            liveRequest(i, 8, 8, 0, pool.spec(0).bytes, 8)); // tiny
        reqs.push_back(liveRequest(100 + i, 500, 500, 9,
                                   pool.spec(9).bytes, 128)); // huge
    }
    for (auto &r : reqs)
        sched.enqueue(&r);
    sched.onIterationEnd(sim::fromSeconds(1.0)); // triggers bootstrap
    EXPECT_GE(sched.queueCount(), 2);
    // All waiting requests survived the redistribution.
    EXPECT_EQ(sched.waitingCount(), 40u);
}

TEST(MlqScheduler, SmallLaneIsTheExpressLane)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::MlqScheduler sched(testMlqConfig(), &pool);
    std::vector<serving::LiveRequest> warm;
    warm.reserve(40);
    for (int i = 0; i < 20; ++i) {
        warm.push_back(liveRequest(i, 8, 8, 0, pool.spec(0).bytes, 8));
        warm.push_back(liveRequest(100 + i, 500, 500, 9,
                                   pool.spec(9).bytes, 128));
    }
    for (auto &r : warm)
        sched.enqueue(&r);
    sched.onIterationEnd(sim::fromSeconds(1.0));
    ASSERT_GE(sched.queueCount(), 2);
    // Admissions must start from the small-request lane.
    FakeAdmission fake;
    fake.ctx.admissionSlots = 5;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_FALSE(admitted.empty());
    for (const auto *r : admitted)
        EXPECT_LE(r->req.inputTokens, 8);
}

TEST(MlqScheduler, QuotaLimitsLaneOccupancy)
{
    model::AdapterPool pool(model::llama7B(), 10);
    auto cfg = testMlqConfig();
    cfg.totalTokens = 2000; // very tight pool
    core::MlqScheduler sched(cfg, &pool);
    std::vector<serving::LiveRequest> reqs;
    reqs.reserve(10);
    for (int i = 0; i < 10; ++i)
        reqs.push_back(liveRequest(i, 400, 400, 0, pool.spec(0).bytes, 8));
    for (auto &r : reqs)
        sched.enqueue(&r);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    // Token cost per request is ~830 (400+400+adapter): only 2 fit the
    // 2000-token pool; the rest wait even though resources were "free".
    EXPECT_EQ(admitted.size(), 2u);
    // Finishing a request returns its tokens.
    serving::LiveRequest *done = admitted.front();
    done->phase = serving::RequestPhase::Finished;
    done->admitTime = 0;
    done->finishTime = sim::fromSeconds(1.0);
    sched.onRequestFinished(done);
    FakeAdmission fake2;
    EXPECT_EQ(sched.selectAdmissions(fake2.ctx).size(), 1u);
}

TEST(MlqScheduler, SpareResourcesRedistributed)
{
    // Two lanes; the small lane is empty, so its quota flows to the
    // large lane in phase 2 of Algorithm 1.
    model::AdapterPool pool(model::llama7B(), 10);
    auto cfg = testMlqConfig();
    cfg.totalTokens = 4000;
    core::MlqScheduler sched(cfg, &pool);
    std::vector<serving::LiveRequest> warm;
    warm.reserve(40);
    for (int i = 0; i < 20; ++i) {
        warm.push_back(liveRequest(i, 8, 8, 0, pool.spec(0).bytes, 8));
        warm.push_back(liveRequest(100 + i, 500, 500, 9,
                                   pool.spec(9).bytes, 128));
    }
    for (auto &r : warm)
        sched.enqueue(&r);
    sched.onIterationEnd(sim::fromSeconds(1.0));
    ASSERT_GE(sched.queueCount(), 2);
    // Drain everything; the scheduler may admit from every lane.
    FakeAdmission fake;
    const auto first = sched.selectAdmissions(fake.ctx);
    EXPECT_FALSE(first.empty());
    // Now only large requests remain waiting; quotas of the (drained)
    // small lane must be usable by the large lane.
    std::size_t drained = first.size();
    for (int round = 0; round < 100 && sched.hasWaiting(); ++round) {
        for (auto *r : first) {
            if (r->phase != serving::RequestPhase::Finished) {
                r->phase = serving::RequestPhase::Finished;
                r->finishTime = sim::fromSeconds(2.0 + round);
                sched.onRequestFinished(r);
            }
        }
        FakeAdmission again;
        const auto more = sched.selectAdmissions(again.ctx);
        drained += more.size();
        for (auto *r : more) {
            r->phase = serving::RequestPhase::Finished;
            r->finishTime = sim::fromSeconds(2.0 + round);
            sched.onRequestFinished(r);
        }
    }
    EXPECT_EQ(drained, 40u);
}

TEST(MlqScheduler, BypassAdmitsYoungerOnAdapterMemoryBlock)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::MlqScheduler sched(testMlqConfig(), &pool);
    auto blocked = liveRequest(1, 64, 64, 9, pool.spec(9).bytes, 128);
    auto younger = liveRequest(2, 64, 64, 0, pool.spec(0).bytes, 8);
    sched.enqueue(&blocked);
    sched.enqueue(&younger);

    FakeAdmission fake;
    fake.refuse = &blocked;
    fake.refuseWith = serving::ReserveResult::NoAdapterMemory;
    // Memory for the blocked request frees far in the future; the
    // younger request's execution is short: bypass allowed.
    fake.ctx.estimateMemoryFree = [](std::int64_t) {
        return sim::fromSeconds(100.0);
    };
    fake.ctx.estimateExecTime = [](const serving::LiveRequest *) {
        return sim::fromSeconds(1.0);
    };
    int bypasses = 0;
    fake.ctx.noteBypass = [&] { ++bypasses; };

    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0], &younger);
    EXPECT_EQ(bypasses, 1);
    EXPECT_EQ(sched.waitingCount(), 1u); // blocked request still queued
}

TEST(MlqScheduler, BypassGuardBlocksLongBypasser)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::MlqScheduler sched(testMlqConfig(), &pool);
    auto blocked = liveRequest(1, 64, 64, 9, pool.spec(9).bytes, 128);
    auto younger = liveRequest(2, 64, 64, 0, pool.spec(0).bytes, 8);
    sched.enqueue(&blocked);
    sched.enqueue(&younger);

    FakeAdmission fake;
    fake.refuse = &blocked;
    fake.refuseWith = serving::ReserveResult::NoAdapterMemory;
    // Memory frees soon; the younger request would run longer than the
    // blocked request's wait: bypass must NOT happen (§4.3.3).
    fake.ctx.estimateMemoryFree = [](std::int64_t) {
        return sim::fromSeconds(0.5);
    };
    fake.ctx.estimateExecTime = [](const serving::LiveRequest *) {
        return sim::fromSeconds(10.0);
    };
    EXPECT_TRUE(sched.selectAdmissions(fake.ctx).empty());
    EXPECT_EQ(sched.waitingCount(), 2u);
}

TEST(MlqScheduler, WrongBypassGetsSquashed)
{
    model::AdapterPool pool(model::llama7B(), 10);
    core::MlqScheduler sched(testMlqConfig(), &pool);
    auto blocked = liveRequest(1, 64, 64, 9, pool.spec(9).bytes, 128);
    auto younger = liveRequest(2, 64, 64, 0, pool.spec(0).bytes, 8);
    sched.enqueue(&blocked);
    sched.enqueue(&younger);

    FakeAdmission fake;
    fake.refuse = &blocked;
    fake.refuseWith = serving::ReserveResult::NoAdapterMemory;
    fake.ctx.estimateMemoryFree = [](std::int64_t) {
        return sim::fromSeconds(100.0);
    };
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 1u);
    admitted[0]->phase = serving::RequestPhase::Running;

    // Next cycle: memory including R2's holdings would now fit R1, but
    // free memory alone would not -> squash R2.
    FakeAdmission next;
    next.refuse = &blocked;
    next.refuseWith = serving::ReserveResult::NoAdapterMemory;
    next.ctx.freeBytes = [&] { return blocked.adapterBytes - 1; };
    next.ctx.heldBytes = [](const serving::LiveRequest *) {
        return std::int64_t{2};
    };
    bool squashed = false;
    next.ctx.squashForBypass = [&](serving::LiveRequest *r) {
        EXPECT_EQ(r, &younger);
        squashed = true;
        r->phase = serving::RequestPhase::Waiting;
        sched.requeueFront(r);
    };
    sched.selectAdmissions(next.ctx);
    EXPECT_TRUE(squashed);
}

TEST(MlqScheduler, StaticVariantUsesEqualRangesAndQuotas)
{
    model::AdapterPool pool(model::llama7B(), 10);
    auto cfg = testMlqConfig();
    cfg.dynamic = false;
    core::MlqScheduler sched(cfg, &pool);
    std::vector<serving::LiveRequest> warm;
    warm.reserve(30);
    for (int i = 0; i < 30; ++i) {
        warm.push_back(liveRequest(i, 8 + i * 16, 8 + i * 16, i % 10,
                                   pool.spec(i % 10).bytes,
                                   pool.spec(i % 10).rank));
    }
    for (auto &r : warm)
        sched.enqueue(&r);
    sched.onIterationEnd(sim::fromSeconds(1.0));
    EXPECT_EQ(sched.queueCount(), 4);
    const auto quotas = sched.quotas();
    for (std::size_t i = 1; i < quotas.size(); ++i)
        EXPECT_EQ(quotas[i], quotas[0]);
}

TEST(Mlq, WaitingCountMatchesScanUnderChurn)
{
    // A seeded walk over every entry point that moves a request into or
    // out of the lanes: enqueue, squash requeue, admission (with
    // bypasses past refused heads), finish, and reconfiguration. After
    // every step the O(1) waiting count must equal the lane scan.
    model::AdapterPool pool(model::llama7B(), 10);
    auto cfg = testMlqConfig();
    cfg.totalTokens = 20000; // quotas bind, so lanes keep a backlog
    cfg.refreshPeriod = sim::fromSeconds(2.0);
    core::MlqScheduler sched(cfg, &pool);
    std::mt19937_64 rng(20241018);
    std::vector<serving::LiveRequest> reqs;
    reqs.reserve(600);
    std::vector<serving::LiveRequest *> admitted;
    sim::SimTime now = 0;
    int bypasses = 0;
    int requeues = 0;

    for (int step = 0; step < 3000; ++step) {
        switch (rng() % 6) {
          case 0:
          case 1:
            if (reqs.size() < reqs.capacity()) {
                const auto adapter =
                    static_cast<model::AdapterId>(rng() % 10);
                reqs.push_back(liveRequest(
                    static_cast<std::int64_t>(reqs.size()),
                    static_cast<std::int64_t>(8 + rng() % 600),
                    static_cast<std::int64_t>(8 + rng() % 600), adapter,
                    pool.spec(adapter).bytes, pool.spec(adapter).rank));
                reqs.back().arrival = now;
                sched.enqueue(&reqs.back());
            }
            break;
          case 2: {
            // Refuse a random waiting request on adapter memory, so a
            // blocked lane head is bypassed.
            const auto waiting = sched.waitingSnapshot();
            FakeAdmission fake;
            fake.ctx.now = now;
            fake.ctx.admissionSlots = static_cast<int>(rng() % 4);
            fake.refuseWith = serving::ReserveResult::NoAdapterMemory;
            if (!waiting.empty())
                fake.refuse = waiting[rng() % waiting.size()];
            fake.ctx.noteBypass = [&] { ++bypasses; };
            for (serving::LiveRequest *r : sched.selectAdmissions(fake.ctx)) {
                r->phase = serving::RequestPhase::Running;
                r->admitTime = now;
                admitted.push_back(r);
            }
            break;
          }
          case 3:
            if (!admitted.empty()) {
                const auto i = rng() % admitted.size();
                serving::LiveRequest *r = admitted[i];
                admitted.erase(admitted.begin() +
                               static_cast<std::ptrdiff_t>(i));
                r->phase = serving::RequestPhase::Waiting;
                sched.requeueFront(r);
                ++requeues;
            }
            break;
          case 4:
            if (!admitted.empty()) {
                const auto i = rng() % admitted.size();
                serving::LiveRequest *r = admitted[i];
                admitted.erase(admitted.begin() +
                               static_cast<std::ptrdiff_t>(i));
                r->phase = serving::RequestPhase::Finished;
                r->finishTime = now;
                sched.onRequestFinished(r);
            }
            break;
          case 5:
            now += sim::fromMillis(static_cast<double>(rng() % 500));
            sched.onIterationEnd(now);
            break;
        }
        const auto waiting = sched.waitingSnapshot();
        ASSERT_EQ(sched.waitingCount(), waiting.size()) << "step " << step;
        ASSERT_EQ(sched.hasWaiting(), !waiting.empty()) << "step " << step;
    }
    // The walk reached the interesting states.
    EXPECT_GT(sched.reconfigurations(), 2);
    EXPECT_GT(sched.queueCount(), 1);
    EXPECT_GT(bypasses, 0);
    EXPECT_GT(requeues, 0);
}
