/**
 * @file
 * Unit tests for the output-length predictors (BERT proxy and online
 * history EWMA) and the histogram-based load predictor.
 */

#include <gtest/gtest.h>

#include "predict/history_predictor.h"
#include "predict/length_predictor.h"
#include "predict/load_predictor.h"
#include "simkit/time.h"

namespace predict = chameleon::predict;
namespace sim = chameleon::sim;
namespace workload = chameleon::workload;

namespace {

workload::Request
req(std::int64_t id, std::int64_t output)
{
    workload::Request r;
    r.id = id;
    r.arrival = 0;
    r.inputTokens = 64;
    r.outputTokens = output;
    return r;
}

} // namespace

TEST(LengthPredictor, BucketMidpoints)
{
    using LP = predict::LengthPredictor;
    EXPECT_EQ(LP::bucketMidpoint(1), 1);   // [1,2) -> 1.5 truncated
    EXPECT_EQ(LP::bucketMidpoint(2), 3);
    EXPECT_EQ(LP::bucketMidpoint(3), 3);
    EXPECT_EQ(LP::bucketMidpoint(100), 96); // [64,128) midpoint
    EXPECT_EQ(LP::bucketMidpoint(128), 192);
}

TEST(LengthPredictor, DeterministicPerRequest)
{
    predict::LengthPredictor p(0.5);
    const auto r = req(42, 100);
    const auto first = p.predict(r);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(p.predict(r), first);
}

TEST(LengthPredictor, PerfectAccuracyHitsBucket)
{
    predict::LengthPredictor p(1.0);
    for (std::int64_t id = 0; id < 500; ++id) {
        const auto r = req(id, 100);
        EXPECT_EQ(p.predict(r), 96); // true bucket midpoint of 100
    }
}

TEST(LengthPredictor, MeasuredAccuracyTracksKnob)
{
    for (double acc : {0.6, 0.8}) {
        predict::LengthPredictor p(acc);
        int correct = 0;
        const int n = 5000;
        for (std::int64_t id = 0; id < n; ++id) {
            const auto r = req(id, 100);
            correct += p.predict(r) == 96 ? 1 : 0;
        }
        EXPECT_NEAR(static_cast<double>(correct) / n, acc, 0.03)
            << "accuracy " << acc;
    }
}

TEST(LengthPredictor, MispredictionsArePlausible)
{
    predict::LengthPredictor p(0.0); // always wrong
    for (std::int64_t id = 0; id < 200; ++id) {
        const auto r = req(id, 64);
        const auto pred = p.predict(r);
        EXPECT_GE(pred, 1);
        EXPECT_NE(pred, 96); // 96 is the true bucket of 64
        EXPECT_LE(pred, 64 * 16);
    }
}

TEST(LoadPredictor, ColdAdapterHasZeroHotness)
{
    predict::HistogramLoadPredictor lp(60.0);
    EXPECT_DOUBLE_EQ(lp.hotness(3, sim::fromSeconds(10)), 0.0);
    EXPECT_TRUE(lp.hottest(sim::fromSeconds(10), 4).empty());
}

TEST(LoadPredictor, FrequentAdapterRanksAboveRare)
{
    predict::HistogramLoadPredictor lp(60.0);
    for (int i = 0; i < 20; ++i)
        lp.recordArrival(1, sim::fromSeconds(i));
    lp.recordArrival(2, sim::fromSeconds(5));
    const auto hot = lp.hottest(sim::fromSeconds(20), 2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0], 1);
    EXPECT_EQ(hot[1], 2);
}

TEST(LoadPredictor, HotnessDecaysAfterBurstEnds)
{
    predict::HistogramLoadPredictor lp(600.0);
    for (int i = 0; i < 10; ++i)
        lp.recordArrival(7, sim::fromSeconds(i));
    const double hot_now = lp.hotness(7, sim::fromSeconds(10));
    const double hot_later = lp.hotness(7, sim::fromSeconds(100));
    EXPECT_GT(hot_now, hot_later);
}

TEST(LoadPredictor, WindowExpiresOldArrivals)
{
    predict::HistogramLoadPredictor lp(30.0);
    lp.recordArrival(9, sim::fromSeconds(0));
    EXPECT_GT(lp.hotness(9, sim::fromSeconds(1)), 0.0);
    EXPECT_DOUBLE_EQ(lp.hotness(9, sim::fromSeconds(100)), 0.0);
}

TEST(LoadPredictor, TopKRespectsK)
{
    predict::HistogramLoadPredictor lp(60.0);
    for (int a = 0; a < 10; ++a) {
        for (int i = 0; i <= a; ++i)
            lp.recordArrival(a, sim::fromSeconds(i));
    }
    const auto hot = lp.hottest(sim::fromSeconds(10), 3);
    ASSERT_EQ(hot.size(), 3u);
    EXPECT_EQ(hot[0], 9);
}

// ------------------------------------------------- history predictor

TEST(HistoryPredictor, ColdStartUsesDefault)
{
    predict::HistoryLengthPredictor p(0.2, 64);
    workload::Request r;
    r.adapter = 3;
    EXPECT_EQ(p.predict(r), 64);
}

TEST(HistoryPredictor, LearnsPerAdapterMeans)
{
    predict::HistoryLengthPredictor p(0.5);
    workload::Request short_req;
    short_req.adapter = 1;
    short_req.outputTokens = 10;
    workload::Request long_req;
    long_req.adapter = 2;
    long_req.outputTokens = 400;
    for (int i = 0; i < 20; ++i) {
        p.observe(short_req);
        p.observe(long_req);
    }
    EXPECT_NEAR(static_cast<double>(p.predict(short_req)), 10.0, 2.0);
    EXPECT_NEAR(static_cast<double>(p.predict(long_req)), 400.0, 20.0);
    EXPECT_EQ(p.observations(), 40);
}

TEST(HistoryPredictor, GlobalFallbackForUnseenAdapter)
{
    predict::HistoryLengthPredictor p(0.5, 64);
    workload::Request seen;
    seen.adapter = 1;
    seen.outputTokens = 100;
    p.observe(seen);
    workload::Request unseen;
    unseen.adapter = 9;
    // Falls back to the global EWMA (100), not the cold default (64).
    EXPECT_EQ(p.predict(unseen), 100);
}

TEST(HistoryPredictor, TracksDrift)
{
    predict::HistoryLengthPredictor p(0.3);
    workload::Request r;
    r.adapter = 5;
    r.outputTokens = 50;
    for (int i = 0; i < 10; ++i)
        p.observe(r);
    r.outputTokens = 300;
    for (int i = 0; i < 20; ++i)
        p.observe(r);
    EXPECT_NEAR(static_cast<double>(p.predict(r)), 300.0, 30.0);
}
