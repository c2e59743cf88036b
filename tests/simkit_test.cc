/**
 * @file
 * Unit tests for the simulation substrate: time, RNG, distributions,
 * statistics, time series, and the event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "simkit/distributions.h"
#include "simkit/rng.h"
#include "simkit/simulator.h"
#include "simkit/stats.h"
#include "simkit/time.h"
#include "simkit/timeseries.h"

namespace sim = chameleon::sim;

// ---------------------------------------------------------------- time

TEST(Time, ConversionsRoundTrip)
{
    EXPECT_EQ(sim::fromSeconds(1.0), sim::kSec);
    EXPECT_EQ(sim::fromMillis(1.0), sim::kMsec);
    EXPECT_DOUBLE_EQ(sim::toSeconds(sim::kSec), 1.0);
    EXPECT_DOUBLE_EQ(sim::toMillis(5 * sim::kMsec), 5.0);
    EXPECT_EQ(sim::fromSeconds(0.0000015), 2); // rounds to nearest usec
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    sim::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    sim::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextBelowUniformish)
{
    sim::Rng rng(11);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBelow(10)];
    for (int c : counts) {
        EXPECT_GT(c, n / 10 - n / 50);
        EXPECT_LT(c, n / 10 + n / 50);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    sim::Rng parent(5);
    sim::Rng child = parent.split();
    // The child stream should not replay the parent stream.
    sim::Rng parent2(5);
    (void)parent2(); // consume the value that seeded the child
    EXPECT_NE(child(), parent2());
}

// -------------------------------------------------------- distributions

TEST(Distributions, ExponentialMeanMatchesRate)
{
    sim::Rng rng(42);
    const double rate = 4.0;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += sim::sampleExponential(rng, rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Distributions, LognormalMedianIsExpMu)
{
    sim::Rng rng(43);
    std::vector<double> xs;
    const double mu = std::log(48.0);
    for (int i = 0; i < 100001; ++i)
        xs.push_back(sim::sampleLognormal(rng, mu, 1.0));
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    EXPECT_NEAR(xs[xs.size() / 2], 48.0, 2.0);
}

TEST(Distributions, NormalMoments)
{
    sim::Rng rng(44);
    sim::OnlineStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(sim::sampleNormal(rng));
    EXPECT_NEAR(stats.mean(), 0.0, 0.01);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Distributions, BoundedParetoStaysInBounds)
{
    sim::Rng rng(45);
    for (int i = 0; i < 10000; ++i) {
        const double x = sim::sampleBoundedPareto(rng, 1.5, 2.0, 100.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LE(x, 100.0);
    }
}

TEST(PowerLawSampler, UniformWhenAlphaZero)
{
    sim::PowerLawSampler sampler(5, 0.0);
    for (std::size_t k = 0; k < 5; ++k)
        EXPECT_NEAR(sampler.probability(k), 0.2, 1e-12);
}

TEST(PowerLawSampler, SkewIncreasesWithAlpha)
{
    sim::PowerLawSampler flat(100, 0.5);
    sim::PowerLawSampler steep(100, 2.0);
    EXPECT_GT(steep.probability(0), flat.probability(0));
    EXPECT_LT(steep.probability(99), flat.probability(99));
}

TEST(PowerLawSampler, EmpiricalMatchesPmf)
{
    sim::Rng rng(46);
    sim::PowerLawSampler sampler(10, 1.2);
    std::vector<int> counts(10, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[sampler.sample(rng)];
    for (std::size_t k = 0; k < 10; ++k) {
        EXPECT_NEAR(static_cast<double>(counts[k]) / n,
                    sampler.probability(k), 0.01);
    }
}

TEST(DiscreteSampler, RespectsWeights)
{
    sim::Rng rng(47);
    sim::DiscreteSampler sampler({1.0, 3.0});
    int ones = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ones += sampler.sample(rng) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

// ---------------------------------------------------------------- stats

TEST(OnlineStats, BasicMoments)
{
    sim::OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 8u);
}

TEST(PercentileTracker, ExactOnSmallSets)
{
    sim::PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    EXPECT_NEAR(t.p50(), 50.5, 1e-9);
    EXPECT_NEAR(t.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(t.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(t.p99(), 99.01, 1e-9);
}

TEST(PercentileTracker, InterleavedAddAndQuery)
{
    sim::PercentileTracker t;
    t.add(10.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
    t.add(20.0);
    EXPECT_DOUBLE_EQ(t.p50(), 15.0);
    t.add(0.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
}

TEST(PercentileTracker, CdfMonotone)
{
    sim::PercentileTracker t;
    sim::Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        t.add(rng.nextDouble());
    const auto cdf = t.cdf();
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_LE(cdf[i - 1].first, cdf[i].first);
        EXPECT_LT(cdf[i - 1].second, cdf[i].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(PercentileTracker, MeanIsIndependentOfSortState)
{
    // Summed in storage order, these read 0.19999999999999998 unsorted
    // and 0.20000000000000004 once a percentile query sorted them.
    sim::PercentileTracker t;
    t.add(0.3);
    t.add(0.2);
    t.add(0.1);
    const double before = t.mean();
    EXPECT_EQ(before, (0.3 + 0.2 + 0.1) / 3.0);
    EXPECT_DOUBLE_EQ(t.p99(), 0.298);
    EXPECT_EQ(t.mean(), before);
    t.add(0.4);
    EXPECT_EQ(t.mean(), (0.3 + 0.2 + 0.1 + 0.4) / 4.0);
}

TEST(PercentileTrackerDeathTest, NanSampleAborts)
{
    sim::PercentileTracker t;
    t.add(1.0);
    EXPECT_DEATH(t.add(std::nan("")), "percentile sample is NaN");
}

namespace {

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

/** Any double but NaN and -0.0, from uniformly random bits. */
double
randomBitsDouble(sim::Rng &rng)
{
    for (;;) {
        const std::uint64_t bits = rng();
        double x;
        std::memcpy(&x, &bits, sizeof x);
        if (!std::isnan(x) && bits != bitsOf(-0.0))
            return x;
    }
}

/** One seeded sample set of one of several shapes (no NaN, no -0.0). */
std::vector<double>
sortInput(sim::Rng &rng, std::size_t n, int shape)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    std::vector<double> pool;
    for (int i = 0; i < 5; ++i)
        pool.push_back(randomBitsDouble(rng));
    std::vector<double> v(n);
    for (double &x : v) {
        switch (shape) {
        case 0: // latency-like: positive, a few decades
            x = std::exp(10.0 * rng.nextDouble() - 5.0);
            break;
        case 1: // signed, with infinities, subnormals and zeros
            switch (rng.nextBelow(6)) {
            case 0: x = rng.nextBelow(2) ? inf : -inf; break;
            case 1:
                x = denorm * static_cast<double>(rng.nextBelow(1000)) *
                    (rng.nextBelow(2) ? 1.0 : -1.0);
                if (x == 0.0)
                    x = 0.0;
                break;
            default: x = 2e6 * rng.nextDouble() - 1e6; break;
            }
            break;
        case 2: // heavy duplicates
            x = pool[rng.nextBelow(pool.size())];
            break;
        case 3: // all equal
            x = pool[0];
            break;
        default: // every exponent and sign
            x = randomBitsDouble(rng);
            break;
        }
    }
    return v;
}

} // namespace

/** The radix kernel is bit-equal to std::sort on every NaN-free set
 * without mixed-sign zeros, skipped byte passes included. */
TEST(Stats, SortDoublesMatchesStdSort)
{
    sim::Rng rng(20);
    std::vector<std::size_t> sizes = {0, 1, 2, 3, 255, 256, 4096, 65537,
                                      300000};
    for (int i = 0; i < 40; ++i)
        sizes.push_back(rng.nextBelow(20000));
    for (const std::size_t n : sizes) {
        for (int shape = 0; shape < 5; ++shape) {
            std::vector<double> got = sortInput(rng, n, shape);
            std::vector<double> want = got;
            std::sort(want.begin(), want.end());
            sim::sortDoubles(got);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(bitsOf(got[i]), bitsOf(want[i]))
                    << "n=" << n << " shape=" << shape << " i=" << i;
            }
        }
    }
}

/** Mixed-sign zeros compare equal, so std::sort may leave them in any
 * order; the kernel's keys put every -0.0 first. */
TEST(Stats, SortDoublesPutsNegativeZeroFirst)
{
    for (const std::size_t n : {8u, 200u}) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : -1.0);
        sim::sortDoubles(v);
        const std::size_t negatives = n / 3;
        const std::size_t negZeros = (n + 2) / 3;
        for (std::size_t i = 0; i < n; ++i) {
            if (i < negatives)
                EXPECT_EQ(v[i], -1.0);
            else if (i < negatives + negZeros)
                EXPECT_EQ(bitsOf(v[i]), bitsOf(-0.0)) << i;
            else
                EXPECT_EQ(bitsOf(v[i]), bitsOf(0.0)) << i;
        }
    }
}

TEST(Histogram, BinningAndClamping)
{
    sim::Histogram h(0.0, 10.0, 10);
    h.add(-5.0); // clamps into bin 0
    h.add(0.5);
    h.add(9.99);
    h.add(50.0); // clamps into last bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.binLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHigh(9), 10.0);
}

// ----------------------------------------------------------- timeseries

TEST(TimeSeries, DownsampleKeepsEndpointsApproximately)
{
    sim::TimeSeries ts;
    for (int i = 0; i < 1000; ++i)
        ts.record(i * sim::kMsec, static_cast<double>(i));
    const auto down = ts.downsample(10);
    EXPECT_EQ(down.size(), 10u);
    EXPECT_EQ(down.front().time, 0);
}

TEST(WindowedPercentiles, OutOfOrderSamples)
{
    sim::WindowedPercentiles wp(sim::kSec);
    wp.record(2 * sim::kSec, 5.0);
    wp.record(0, 1.0);
    wp.record(0, 3.0);
    const auto series = wp.series(50.0);
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].time, 0);
    EXPECT_DOUBLE_EQ(series[0].value, 2.0);
    EXPECT_EQ(series[1].time, 2 * sim::kSec);
    EXPECT_DOUBLE_EQ(series[1].value, 5.0);
}

TEST(WindowedSum, RatesPerSecond)
{
    sim::WindowedSum ws(sim::kSec);
    ws.record(0, 100.0);
    ws.record(sim::kSec / 2, 100.0);
    ws.record(3 * sim::kSec, 300.0);
    EXPECT_DOUBLE_EQ(ws.maxRate(), 300.0);
    const auto rates = ws.ratePerSecond();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0].value, 200.0);
}

TEST(WindowedSum, MeanRateSkipsWindowsWithoutSamples)
{
    // Traffic in seconds 0 and 9 only: the mean is over those two busy
    // windows, not over the ten seconds they span.
    sim::WindowedSum ws(sim::kSec);
    ws.record(0, 100.0);
    ws.record(9 * sim::kSec, 300.0);
    EXPECT_DOUBLE_EQ(ws.meanRate(), 200.0);
    EXPECT_EQ(ws.ratePerSecond().size(), 2u);
    // A 2 s window halves each window's rate.
    sim::WindowedSum wide(2 * sim::kSec);
    wide.record(sim::kSec, 100.0);
    wide.record(5 * sim::kSec, 300.0);
    EXPECT_DOUBLE_EQ(wide.meanRate(), 100.0);
}

// ------------------------------------------------------------ simulator

TEST(Simulator, FiresInTimestampOrder)
{
    sim::Simulator s;
    std::vector<int> order;
    s.scheduleAt(30, [&] { order.push_back(3); });
    s.scheduleAt(10, [&] { order.push_back(1); });
    s.scheduleAt(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, SameTimestampFifo)
{
    sim::Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        s.scheduleAt(7, [&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling)
{
    sim::Simulator s;
    int fired = 0;
    s.scheduleAt(10, [&] {
        s.scheduleAfter(5, [&] {
            EXPECT_EQ(s.now(), 15);
            ++fired;
        });
    });
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.eventsDispatched(), 2u);
}

TEST(Simulator, CancelPreventsDispatch)
{
    sim::Simulator s;
    bool fired = false;
    const auto id = s.scheduleAt(10, [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id)); // double-cancel is a no-op
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents)
{
    sim::Simulator s;
    s.runUntil(100);
    EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, RunUntilLeavesLaterEvents)
{
    sim::Simulator s;
    bool late = false;
    s.scheduleAt(200, [&] { late = true; });
    s.runUntil(100);
    EXPECT_FALSE(late);
    EXPECT_EQ(s.pendingEvents(), 1u);
    s.run();
    EXPECT_TRUE(late);
}

TEST(Simulator, SlotReuseAfterCancel)
{
    sim::Simulator s;
    int count = 0;
    for (int round = 0; round < 100; ++round) {
        const auto id = s.scheduleAt(s.now() + 1, [&] { ++count; });
        if (round % 2 == 0)
            s.cancel(id);
        s.run();
    }
    EXPECT_EQ(count, 50);
}
