/**
 * @file
 * Unit tests for traces and the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "model/adapter.h"
#include "model/llm.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace model = chameleon::model;
namespace sim = chameleon::sim;
namespace workload = chameleon::workload;

namespace {

workload::Trace
makeTrace(workload::TraceGenConfig cfg, const model::AdapterPool *pool)
{
    workload::TraceGenerator gen(cfg, pool);
    return gen.generate();
}

} // namespace

TEST(Trace, OrderingEnforced)
{
    workload::Trace t;
    t.append({0, 100, 10, 10, model::kNoAdapter});
    t.append({1, 200, 10, 10, model::kNoAdapter});
    EXPECT_DEATH(t.append({2, 50, 10, 10, model::kNoAdapter}),
                 "arrival-ordered");
}

TEST(Trace, CsvRoundTrip)
{
    workload::Trace t;
    t.append({0, 100, 32, 64, 5});
    t.append({1, 250, 2000, 1, model::kNoAdapter});
    std::stringstream csv;
    t.saveCsv(csv);
    std::string error;
    const auto loaded = workload::Trace::loadCsv(csv, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ((*loaded)[0].arrival, 100);
    EXPECT_EQ((*loaded)[1].inputTokens, 2000);
    EXPECT_EQ((*loaded)[1].adapter, model::kNoAdapter);
}

TEST(Trace, CsvRejectsBadLinesByNumber)
{
    const std::string header = "id,arrival_us,input,output,adapter\n";
    const std::pair<std::string, std::string> cases[] = {
        {header + "0,100,32,64,5\n1,x,32,64,5\n",
         "line 3: malformed trace line: 1,x,32,64,5"},
        {header + "0,100,32,64\n", "line 2: malformed trace line"},
        {header + "0,100,-32,64,5\n", "line 2: malformed trace line"},
        {header + "0,100,32,64,5\n\n1,99,32,64,5\n",
         "line 4: arrival before the previous line's: 1,99,32,64,5"},
    };
    for (const auto &[text, message] : cases) {
        std::istringstream csv(text);
        std::string error;
        EXPECT_FALSE(workload::Trace::loadCsv(csv, &error).has_value())
            << text;
        EXPECT_NE(error.find(message), std::string::npos) << error;
    }
}

TEST(TraceGen, DeterministicForSeed)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.durationSeconds = 30.0;
    const auto a = makeTrace(cfg, &pool);
    const auto b = makeTrace(cfg, &pool);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].inputTokens, b[i].inputTokens);
        EXPECT_EQ(a[i].adapter, b[i].adapter);
    }
}

TEST(TraceGen, MeanRpsMatchesConfig)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.rps = 10.0;
    cfg.durationSeconds = 400.0;
    const auto t = makeTrace(cfg, &pool);
    EXPECT_NEAR(t.meanRps(), 10.0, 0.7);
}

TEST(TraceGen, LengthsWithinClamps)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.durationSeconds = 120.0;
    const auto t = makeTrace(cfg, &pool);
    for (const auto &r : t.requests()) {
        EXPECT_GE(r.inputTokens, cfg.input.minTokens);
        EXPECT_LE(r.inputTokens, cfg.input.maxTokens);
        EXPECT_GE(r.outputTokens, cfg.output.minTokens);
        EXPECT_LE(r.outputTokens, cfg.output.maxTokens);
    }
}

TEST(TraceGen, HeavyTailPresent)
{
    // §3.3: most requests are short, a few are very long.
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.rps = 20.0;
    cfg.durationSeconds = 600.0;
    const auto t = makeTrace(cfg, &pool);
    std::vector<std::int64_t> totals;
    for (const auto &r : t.requests())
        totals.push_back(r.inputTokens + r.outputTokens);
    std::sort(totals.begin(), totals.end());
    const auto p50 = totals[totals.size() / 2];
    const auto p99 = totals[totals.size() * 99 / 100];
    EXPECT_GT(p99, 4 * p50); // heavy tail
}

TEST(TraceGen, UniformRankPopularity)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.rps = 50.0;
    cfg.durationSeconds = 400.0;
    cfg.rankPopularity = workload::Popularity::Uniform;
    const auto t = makeTrace(cfg, &pool);
    std::map<int, int> rank_counts;
    for (const auto &r : t.requests())
        ++rank_counts[pool.spec(r.adapter).rank];
    ASSERT_EQ(rank_counts.size(), 5u);
    const double expected = static_cast<double>(t.size()) / 5.0;
    for (const auto &[rank, count] : rank_counts)
        EXPECT_NEAR(count, expected, 0.15 * expected);
}

TEST(TraceGen, PowerLawAdapterPopularityIsSkewed)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.rps = 50.0;
    cfg.durationSeconds = 400.0;
    const auto t = makeTrace(cfg, &pool);
    // Within the rank-8 block (ids 0..19), adapter 0 must dominate.
    std::map<model::AdapterId, int> counts;
    for (const auto &r : t.requests()) {
        if (r.adapter < 20)
            ++counts[r.adapter];
    }
    ASSERT_FALSE(counts.empty());
    int max_count = 0;
    model::AdapterId max_id = -1;
    for (const auto &[id, c] : counts) {
        if (c > max_count) {
            max_count = c;
            max_id = id;
        }
    }
    EXPECT_EQ(max_id, 0);
    EXPECT_GT(max_count, 3 * counts[19]);
}

TEST(TraceGen, BaseOnlyWhenNoAdapters)
{
    auto cfg = workload::splitwiseLike();
    cfg.numAdapters = 0;
    cfg.durationSeconds = 30.0;
    const auto t = makeTrace(cfg, nullptr);
    for (const auto &r : t.requests())
        EXPECT_EQ(r.adapter, model::kNoAdapter);
}

TEST(TraceGen, BurstsRaiseLocalRate)
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto cfg = workload::splitwiseLike();
    cfg.rps = 8.0;
    cfg.durationSeconds = 300.0;
    cfg.bursts = {{100.0, 150.0, 3.0}};
    const auto t = makeTrace(cfg, &pool);
    int in_burst = 0, before = 0;
    for (const auto &r : t.requests()) {
        const double s = sim::toSeconds(r.arrival);
        if (s >= 100 && s < 150)
            ++in_burst;
        else if (s >= 50 && s < 100)
            ++before;
    }
    EXPECT_GT(in_burst, 2 * before);
}

TEST(TraceGen, PresetsHaveDecreasingLengths)
{
    // §5.4.4: WildChat / LMSYS have smaller inputs/outputs than the
    // Splitwise conversation trace.
    EXPECT_GT(workload::splitwiseLike().input.approxMean(),
              workload::wildchatLike().input.approxMean());
    EXPECT_GT(workload::splitwiseLike().input.approxMean(),
              workload::lmsysLike().input.approxMean());
}
