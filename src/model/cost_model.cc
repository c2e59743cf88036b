#include "model/cost_model.h"

#include <cmath>

#include "simkit/check.h"

namespace chameleon::model {

using sim::SimTime;

CostModel::CostModel(ModelSpec model, GpuSpec gpu, int tpDegree,
                     CostParams params)
    : model_(std::move(model)), gpu_(std::move(gpu)), tp_(tpDegree),
      params_(params)
{
    CHM_CHECK(tp_ >= 1 && (tp_ & (tp_ - 1)) == 0,
              "TP degree must be a power of two, got " << tp_);
}

double
CostModel::tpEfficiency() const
{
    const double log2tp = std::log2(static_cast<double>(tp_));
    const double eff = 1.0 - params_.tpEffLossPerLog2 * log2tp;
    return eff > 0.1 ? eff : 0.1;
}

double
CostModel::effectiveFlops() const
{
    return gpu_.fp16Flops * params_.computeUtil * tp_ * tpEfficiency();
}

double
CostModel::effectiveMemBandwidth() const
{
    return gpu_.memBandwidth * params_.memUtil * tp_ * tpEfficiency();
}

SimTime
CostModel::prefillTime(std::int64_t tokens) const
{
    CHM_CHECK(tokens >= 0, "negative token count");
    const double secs =
        static_cast<double>(tokens) * model_.flopsPerToken() /
        effectiveFlops();
    return sim::fromSeconds(secs);
}

SimTime
CostModel::adapterPrefillTime(int rank, std::int64_t tokens) const
{
    if (rank <= 0 || tokens <= 0)
        return 0;
    // Theoretical extra FLOPs of the decoupled LoRA matmuls, inflated by
    // the measured MBGMM kernel inefficiency, plus the fixed gather cost.
    const double lora_flops =
        2.0 * static_cast<double>(model_.loraDimsPerLayer()) * rank *
        model_.layers * static_cast<double>(tokens);
    const double secs =
        params_.loraIneff * lora_flops / effectiveFlops() +
        params_.mbgmmFixedMs * 1e-3;
    return sim::fromSeconds(secs);
}

SimTime
CostModel::prefillStepTime(
    const std::vector<std::pair<std::int64_t, int>> &reqs) const
{
    SimTime total = sim::fromMillis(params_.prefillFixedMs);
    bool any_adapter = false;
    std::int64_t tokens = 0;
    for (const auto &[tok, rank] : reqs) {
        tokens += tok;
        if (rank > 0) {
            // Per-request variable part only; fixed MBGMM cost added once.
            total += adapterPrefillTime(rank, tok) -
                     sim::fromMillis(params_.mbgmmFixedMs);
            any_adapter = true;
        }
    }
    total += prefillTime(tokens);
    if (any_adapter)
        total += sim::fromMillis(params_.mbgmmFixedMs);
    return total;
}

SimTime
CostModel::decodeIterTime(const int *ranks, std::size_t count,
                          std::int64_t kvTokens) const
{
    if (count == 0)
        return 0;
    const double bw = effectiveMemBandwidth();
    // Weight shards are read once per iteration, in parallel across the
    // TP group (each rank streams its own 1/tp of the weights).
    double secs = static_cast<double>(model_.weightsBytes()) / tp_ /
                  (gpu_.memBandwidth * params_.memUtil);
    secs += params_.decodeFixedMs * 1e-3;
    bool any_adapter = false;
    for (std::size_t i = 0; i < count; ++i) {
        secs += params_.decodeReqUs * 1e-6;
        if (ranks[i] > 0) {
            any_adapter = true;
            secs += params_.decodeRankUs * 1e-6 * ranks[i];
        }
    }
    secs += static_cast<double>(kvTokens * model_.kvBytesPerToken()) / bw;
    if (any_adapter)
        secs += params_.mbgmvFixedMs * 1e-3;
    return sim::fromSeconds(secs);
}

SimTime
CostModel::decodeIterTime(const std::vector<DecodeSlot> &batch) const
{
    std::vector<int> ranks;
    ranks.reserve(batch.size());
    std::int64_t kv_tokens = 0;
    for (const DecodeSlot &slot : batch) {
        ranks.push_back(slot.rank);
        kv_tokens += slot.kvTokens;
    }
    return decodeIterTime(ranks.data(), ranks.size(), kv_tokens);
}

SimTime
CostModel::adapterLoadTime(std::int64_t bytes) const
{
    CHM_CHECK(bytes > 0, "adapter transfer needs positive size");
    double secs = gpu_.pcieSetupSeconds +
                  static_cast<double>(bytes) / gpu_.pcieBandwidth;
    // Under TP each rank receives its partition and the group synchronises
    // before the adapter is usable (§3.2).
    secs += params_.tpSyncMs * 1e-3 * (tp_ - 1);
    return sim::fromSeconds(secs);
}

SimTime
CostModel::isolatedTtft(std::int64_t inputTokens, int rank,
                        std::int64_t adapterBytes, bool includeLoad) const
{
    SimTime t = sim::fromMillis(params_.prefillFixedMs) +
                prefillTime(inputTokens) +
                adapterPrefillTime(rank, inputTokens);
    if (includeLoad && rank > 0)
        t += adapterLoadTime(adapterBytes);
    return t;
}

SimTime
CostModel::isolatedE2e(std::int64_t inputTokens, std::int64_t outputTokens,
                       int rank, std::int64_t adapterBytes,
                       bool includeLoad) const
{
    SimTime t = isolatedTtft(inputTokens, rank, adapterBytes, includeLoad);
    // First output token is produced by the prefill step itself; the
    // remaining outputTokens-1 come from single-request decode iterations
    // with a growing KV footprint.
    for (std::int64_t i = 1; i < outputTokens; ++i)
        t += decodeIterTime(&rank, 1, inputTokens + i);
    return t;
}

} // namespace chameleon::model
