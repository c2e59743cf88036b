/**
 * @file
 * Unit tests for LLM/adapter descriptors and the cost-model calibration.
 *
 * The key tests here pin the cost model to the paper's own Figure 2
 * measurements: with a 142-token medium input on Llama-7B/A40, the TTFT
 * for adapter ranks 8/16/32/64/128 must land within 5% of the published
 * 74/78/88/107/144 ms, with loading around 17.5% of TTFT at rank 128.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

#include "model/adapter.h"
#include "model/cost_model.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/time.h"

namespace model = chameleon::model;
namespace sim = chameleon::sim;

// ----------------------------------------------------------------- llm

TEST(ModelSpec, WeightBytesAreFp16)
{
    EXPECT_EQ(model::llama7B().weightsBytes(),
              static_cast<std::int64_t>(6.74e9 * 2));
}

TEST(ModelSpec, KvBytesPerTokenLlama7B)
{
    // 2 (K,V) * 32 layers * 4096 * 2 bytes = 512 KiB per token.
    EXPECT_EQ(model::llama7B().kvBytesPerToken(), 512ll * 1024);
}

TEST(ModelSpec, GqaShrinksKv)
{
    // Llama-70B uses GQA: 2 * 80 * 1024 * 2 = 320 KiB per token.
    EXPECT_EQ(model::llama70B().kvBytesPerToken(), 320ll * 1024);
    EXPECT_LT(model::llama70B().kvBytesPerToken() /
                  model::llama70B().layers,
              model::llama7B().kvBytesPerToken() / model::llama7B().layers);
}

TEST(ModelSpec, PresetLookup)
{
    model::ModelSpec spec;
    ASSERT_TRUE(model::tryModelByName("llama-13b", &spec));
    EXPECT_EQ(spec.layers, 40);
    ASSERT_TRUE(model::tryModelByName("llama-30b", &spec));
    EXPECT_EQ(spec.hidden, 6656);
    EXPECT_FALSE(model::tryModelByName("llama-1t", &spec));
    EXPECT_EQ(spec.hidden, 6656); // untouched on a miss
}

// ------------------------------------------------------------- adapters

TEST(Adapter, Rank32Llama7BIs64MiB)
{
    // §3.2: "a rank 32 adapter for Llama-7B is 64 MB".
    const auto bytes = model::adapterBytes(model::llama7B(), 32);
    EXPECT_EQ(bytes, 64ll * 1024 * 1024);
}

TEST(Adapter, Rank32Llama70BIs256MiB)
{
    // §3.2: "its size grows to 256 MB for Llama-70B".
    const auto bytes = model::adapterBytes(model::llama70B(), 32);
    EXPECT_NEAR(static_cast<double>(bytes), 256.0 * 1024 * 1024,
                0.03 * 256 * 1024 * 1024);
}

TEST(Adapter, BytesLinearInRank)
{
    const auto m = model::llama7B();
    EXPECT_EQ(model::adapterBytes(m, 16) * 8, model::adapterBytes(m, 128));
}

TEST(AdapterPool, EqualRankShares)
{
    model::AdapterPool pool(model::llama7B(), 100);
    std::map<int, int> counts;
    for (const auto &spec : pool.specs())
        ++counts[spec.rank];
    ASSERT_EQ(counts.size(), 5u);
    for (const auto &[rank, count] : counts)
        EXPECT_EQ(count, 20);
    EXPECT_EQ(pool.maxRank(), 128);
    EXPECT_EQ(pool.maxBytes(), model::adapterBytes(model::llama7B(), 128));
}

TEST(AdapterPool, ExplicitRanks)
{
    model::AdapterPool pool(model::llama7B(), std::vector<int>{8, 128});
    EXPECT_EQ(pool.size(), 2);
    EXPECT_EQ(pool.spec(0).rank, 8);
    EXPECT_EQ(pool.spec(1).rank, 128);
}

// ------------------------------------------------------------ gpu specs

TEST(GpuSpec, Presets)
{
    EXPECT_EQ(model::a40().memBytes, 48ll * 1024 * 1024 * 1024);
    EXPECT_EQ(model::a100(24).memBytes, 24ll * 1024 * 1024 * 1024);
    EXPECT_GT(model::a100(80).fp16Flops, model::a40().fp16Flops);
}

// ------------------------------------------------- cost model: Figure 2

class CostModelFig2 : public ::testing::TestWithParam<std::pair<int, double>>
{
  protected:
    model::CostModel cost_{model::llama7B(), model::a40()};
};

TEST_P(CostModelFig2, TtftMatchesPaper)
{
    const auto [rank, paper_ms] = GetParam();
    const auto bytes = model::adapterBytes(model::llama7B(), rank);
    const auto ttft =
        cost_.isolatedTtft(model::kMediumInputTokens, rank, bytes, /*includeLoad=*/true);
    EXPECT_NEAR(sim::toMillis(ttft), paper_ms, 0.05 * paper_ms)
        << "rank " << rank;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRanks, CostModelFig2,
    ::testing::Values(std::pair{8, 74.0}, std::pair{16, 78.0},
                      std::pair{32, 88.0}, std::pair{64, 107.0},
                      std::pair{128, 144.0}));

TEST(CostModel, LoadingShareAtRank128)
{
    // Fig. 2: ~17.5% of the rank-128 TTFT is adapter loading.
    model::CostModel cost(model::llama7B(), model::a40());
    const auto bytes = model::adapterBytes(model::llama7B(), 128);
    const auto ttft = cost.isolatedTtft(model::kMediumInputTokens, 128, bytes, true);
    const auto load = cost.adapterLoadTime(bytes);
    const double share = static_cast<double>(load) /
                         static_cast<double>(ttft);
    EXPECT_NEAR(share, 0.175, 0.03);
}

TEST(CostModel, AdapterShareGrowsWithRank)
{
    // Fig. 2: adapter overheads (load + exec) reach ~60% at rank 128.
    model::CostModel cost(model::llama7B(), model::a40());
    double prev_share = 0.0;
    for (int rank : model::paperRanks()) {
        const auto bytes = model::adapterBytes(model::llama7B(), rank);
        const auto ttft = cost.isolatedTtft(model::kMediumInputTokens, rank, bytes, true);
        const auto base = cost.isolatedTtft(model::kMediumInputTokens, 0, 0, false);
        const double share = 1.0 - static_cast<double>(base) /
                                       static_cast<double>(ttft);
        EXPECT_GT(share, prev_share);
        prev_share = share;
    }
    EXPECT_NEAR(prev_share, 0.60, 0.06);
}

// ------------------------------------------------- cost model: Figure 3

TEST(CostModel, TtftLinearInInputAndRankGapWidens)
{
    model::CostModel cost(model::llama7B(), model::a40());
    // TTFT grows with input size for every rank; the gap between rank
    // 128 and rank 8 widens as inputs grow (Fig. 3).
    double prev_gap = 0.0;
    for (std::int64_t input : {250, 500, 1000, 2000}) {
        const auto t8 = cost.isolatedTtft(input, 8, 0, false);
        const auto t128 = cost.isolatedTtft(input, 128, 0, false);
        EXPECT_GT(t128, t8);
        const double gap = static_cast<double>(t128 - t8);
        EXPECT_GT(gap, prev_gap);
        prev_gap = gap;
    }
}

// ----------------------------------------------------- decode iteration

TEST(CostModel, DecodeIsWeightReadBound)
{
    model::CostModel cost(model::llama7B(), model::a40());
    const auto t1 = cost.decodeIterTime({{128, 0}});
    // Single-request decode on A40 ~ weights / (bw * util) ~ 24 ms.
    EXPECT_NEAR(sim::toMillis(t1), 25.5, 3.0);
}

TEST(CostModel, DecodeGrowsWithBatchAndKv)
{
    model::CostModel cost(model::llama7B(), model::a40());
    std::vector<model::DecodeSlot> small(8, {128, 32});
    std::vector<model::DecodeSlot> large(128, {128, 32});
    std::vector<model::DecodeSlot> large_kv(128, {1024, 32});
    EXPECT_LT(cost.decodeIterTime(small), cost.decodeIterTime(large));
    EXPECT_LT(cost.decodeIterTime(large), cost.decodeIterTime(large_kv));
}

TEST(CostModel, EmptyBatchTakesNoTime)
{
    model::CostModel cost(model::llama7B(), model::a40());
    EXPECT_EQ(cost.decodeIterTime({}), 0);
}

namespace {

/** The per-slot decode loop as a standalone reference: weights, fixed
 *  cost, then per slot the KV bytes, request and rank terms, in order. */
sim::SimTime
referenceDecodeIterTime(const model::CostModel &cost,
                        const std::vector<model::DecodeSlot> &batch)
{
    if (batch.empty())
        return 0;
    const auto &p = cost.params();
    double secs = static_cast<double>(cost.model().weightsBytes()) /
                  cost.tpDegree() / (cost.gpu().memBandwidth * p.memUtil);
    secs += p.decodeFixedMs * 1e-3;
    bool any_adapter = false;
    std::int64_t kv_bytes = 0;
    for (const auto &slot : batch) {
        kv_bytes += slot.kvTokens * cost.model().kvBytesPerToken();
        secs += p.decodeReqUs * 1e-6;
        if (slot.rank > 0) {
            any_adapter = true;
            secs += p.decodeRankUs * 1e-6 * slot.rank;
        }
    }
    secs += static_cast<double>(kv_bytes) / cost.effectiveMemBandwidth();
    if (any_adapter)
        secs += p.mbgmvFixedMs * 1e-3;
    return sim::fromSeconds(secs);
}

} // namespace

TEST(CostModel, DecodeIterTimeOfMatchesVector)
{
    // Both forms against the per-slot reference: the slot vector, and
    // the engine's contiguous rank array with the batch's summed KV
    // tokens.
    const model::CostModel costs[] = {
        model::CostModel(model::llama7B(), model::a40(), 1),
        model::CostModel(model::llama13B(), model::a100(80), 2),
        model::CostModel(model::llama70B(), model::a100(80), 4),
    };
    const int ranks[] = {0, 0, 8, 16, 32, 64, 128};
    std::mt19937_64 rng(20240518);
    std::vector<int> batch_ranks;
    std::vector<model::DecodeSlot> slots;
    int empty_batches = 0;
    for (int trial = 0; trial < 10000; ++trial) {
        const auto &cost = costs[trial % 3];
        // One batch in 16 is empty; the rest span 1..256 requests.
        const std::size_t n = rng() % 16 == 0 ? 0 : 1 + rng() % 256;
        empty_batches += n == 0 ? 1 : 0;
        batch_ranks.clear();
        slots.clear();
        std::int64_t kv_tokens = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto input = static_cast<std::int64_t>(1 + rng() % 4096);
            const auto generated = static_cast<std::int64_t>(rng() % 2048);
            const int rank = ranks[rng() % 7];
            batch_ranks.push_back(rank);
            kv_tokens += input + generated;
            slots.push_back({input + generated, rank});
        }
        const sim::SimTime reference = referenceDecodeIterTime(cost, slots);
        ASSERT_EQ(cost.decodeIterTime(batch_ranks.data(), batch_ranks.size(),
                                      kv_tokens),
                  reference)
            << "trial " << trial;
        ASSERT_EQ(cost.decodeIterTime(slots), reference) << "trial " << trial;
    }
    EXPECT_GT(empty_batches, 0);
}

// ------------------------------------------------------ tensor parallel

TEST(CostModel, TpSpeedsComputeButTaxesLoads)
{
    model::CostModel tp1(model::llama70B(), model::a100(80), 1);
    model::CostModel tp4(model::llama70B(), model::a100(80), 4);
    EXPECT_LT(tp4.prefillTime(512), tp1.prefillTime(512));
    const auto bytes = model::adapterBytes(model::llama70B(), 32);
    EXPECT_GT(tp4.adapterLoadTime(bytes), tp1.adapterLoadTime(bytes));
}

TEST(CostModel, Fig5LoadingFractionRisesWithTpAndRank)
{
    // Fig. 5 shape: the adapter-loading share of TTFT grows with both
    // the TP degree and the adapter rank.
    double prev_tp_share = 0.0;
    for (int tp : {2, 4, 8}) {
        model::CostModel cost(model::llama70B(), model::a100(80), tp);
        const auto bytes = model::adapterBytes(model::llama70B(), 32);
        const auto ttft = cost.isolatedTtft(model::kMediumInputTokens, 32, bytes, true);
        const double share =
            static_cast<double>(cost.adapterLoadTime(bytes)) /
            static_cast<double>(ttft);
        EXPECT_GT(share, prev_tp_share) << "tp " << tp;
        prev_tp_share = share;
    }
    model::CostModel tp4(model::llama70B(), model::a100(80), 4);
    double prev_rank_share = 0.0;
    for (int rank : model::paperRanks()) {
        const auto bytes = model::adapterBytes(model::llama70B(), rank);
        const auto ttft = tp4.isolatedTtft(model::kMediumInputTokens, rank, bytes, true);
        const double share =
            static_cast<double>(tp4.adapterLoadTime(bytes)) /
            static_cast<double>(ttft);
        EXPECT_GT(share, prev_rank_share) << "rank " << rank;
        prev_rank_share = share;
    }
}

// -------------------------------------------------------- isolated E2E

TEST(CostModel, IsolatedE2eAccumulatesDecodes)
{
    model::CostModel cost(model::llama7B(), model::a40());
    const auto one = cost.isolatedE2e(model::kMediumInputTokens, 1, 0, 0, false);
    const auto ten = cost.isolatedE2e(model::kMediumInputTokens, 10, 0, 0, false);
    EXPECT_EQ(one, cost.isolatedTtft(model::kMediumInputTokens, 0, 0, false));
    // Nine extra decode iterations at ~25 ms each.
    EXPECT_NEAR(sim::toMillis(ten - one), 9 * 25.5, 9 * 4.0);
}

TEST(CostModel, RejectsNonPowerOfTwoTp)
{
    EXPECT_DEATH(model::CostModel(model::llama7B(), model::a40(), 3),
                 "power of two");
}

// ------------------------------------------------- batched prefill step

TEST(CostModel, BatchedPrefillPaysMbgmmFixedOnce)
{
    model::CostModel cost(model::llama7B(), model::a40());
    // Two adapter-bearing prompts prefilled in one iteration share the
    // gathered MBGMM launch cost; separately they would pay it twice.
    const auto together = cost.prefillStepTime({{128, 32}, {128, 64}});
    const auto separate = cost.prefillStepTime({{128, 32}}) +
                          cost.prefillStepTime({{128, 64}});
    const auto fixed = sim::fromMillis(cost.params().mbgmmFixedMs) +
                       sim::fromMillis(cost.params().prefillFixedMs);
    EXPECT_NEAR(static_cast<double>(separate - together),
                static_cast<double>(fixed), 2.0); // usec rounding
}

TEST(CostModel, BaseOnlyPrefillStepSkipsAdapterCosts)
{
    model::CostModel cost(model::llama7B(), model::a40());
    const auto base = cost.prefillStepTime({{256, 0}});
    EXPECT_EQ(base, sim::fromMillis(cost.params().prefillFixedMs) +
                        cost.prefillTime(256));
}

TEST(CostModel, EffectiveRatesScaleWithTp)
{
    model::CostModel tp1(model::llama7B(), model::a100(80), 1);
    model::CostModel tp2(model::llama7B(), model::a100(80), 2);
    // Doubling the group size less than doubles effective rates
    // (parallel-efficiency loss), but they must grow.
    EXPECT_GT(tp2.effectiveFlops(), tp1.effectiveFlops());
    EXPECT_LT(tp2.effectiveFlops(), 2.0 * tp1.effectiveFlops());
    EXPECT_GT(tp2.effectiveMemBandwidth(), tp1.effectiveMemBandwidth());
}
