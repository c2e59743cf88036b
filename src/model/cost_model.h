/**
 * @file
 * Analytical GPU execution cost model.
 *
 * Converts batch composition into virtual execution times. Calibrated
 * against the paper's own single-request measurements (Fig. 2: TTFT of
 * 74/78/88/107/144 ms for adapter ranks 8..128 on Llama-7B/A40 with a
 * 96-token "medium" input). The fit back-solves the input to
 * kMediumInputTokens: its base prefill (fixed overhead plus FLOPs at
 * computeUtil) is 64.5 ms; the MBGMM term (mbgmmFixedMs plus loraIneff
 * times the LoRA FLOPs) grows linearly with rank, from 7.5 ms at rank 8
 * to 55.3 ms at rank 128; the PCIe load adds 1.9 to 25.9 ms. Modelled
 * TTFT is 73.9/78.6/88.2/107.3/145.6 ms (the fig02 rows of
 * bench/fidelity.cc).
 *
 * Structure:
 *  - prefill: compute-bound, FLOPs / effective-FLOP-rate per token.
 *  - LoRA prefill overhead (MBGMM kernel): fixed gather/launch cost plus
 *    an inefficiency multiplier over the theoretical adapter FLOPs. The
 *    paper (and dLoRA Fig. 5) observe the decoupled adapter matmuls cost
 *    far more than their FLOP share; the multiplier captures that.
 *  - decode: memory-bound, weight-shard read + per-request KV reads, plus
 *    the MBGMV adapter overhead.
 *  - adapter transfer: PCIe setup + bytes/bandwidth, plus a per-extra-rank
 *    synchronisation cost under tensor parallelism (§3.2, Fig. 5).
 */

#ifndef CHAMELEON_MODEL_COST_MODEL_H
#define CHAMELEON_MODEL_COST_MODEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/time.h"

namespace chameleon::model {

/**
 * The "medium input" size of the paper's Fig. 2 single-request study,
 * back-solved from the published TTFT numbers under the calibrated
 * cost parameters below.
 */
constexpr std::int64_t kMediumInputTokens = 142;

/** Tunable calibration constants (defaults fit the A40/Llama-7B data). */
struct CostParams
{
    /** Fraction of peak FLOPs achieved by dense prefill GEMMs. */
    double computeUtil = 0.80;
    /** Fraction of peak HBM bandwidth achieved by decode reads. */
    double memUtil = 0.80;
    /** Fixed per-prefill overhead (scheduling, kernel launches), ms. */
    double prefillFixedMs = 0.5;
    /** MBGMM fixed cost per prefill invocation touching adapters, ms. */
    double mbgmmFixedMs = 4.3;
    /** Multiplier on theoretical LoRA FLOP time (kernel inefficiency). */
    double loraIneff = 40.0;
    /** Fixed per-decode-iteration overhead, ms. */
    double decodeFixedMs = 1.0;
    /** Per-running-request decode overhead (attention launch), us. */
    double decodeReqUs = 50.0;
    /** MBGMV fixed cost per decode iteration touching adapters, ms. */
    double mbgmvFixedMs = 1.0;
    /** Per-request per-iteration adapter cost, us per unit rank. */
    double decodeRankUs = 3.0;
    /** Adapter-load synchronisation per extra tensor-parallel rank, ms. */
    double tpSyncMs = 10.0;
    /** Parallel-efficiency loss per doubling of TP degree. */
    double tpEffLossPerLog2 = 0.15;
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const CostParams &a, const CostParams &b);

/** One running request's contribution to a decode iteration. */
struct DecodeSlot
{
    /** KV-cache tokens read this iteration (prompt + generated so far). */
    std::int64_t kvTokens = 0;
    /** LoRA rank, or 0 for base-only requests. */
    int rank = 0;
};

/**
 * Cost model for one execution engine (a GPU or TP group of GPUs).
 */
class CostModel
{
  public:
    CostModel(ModelSpec model, GpuSpec gpu, int tpDegree = 1,
              CostParams params = CostParams{});

    const ModelSpec &model() const { return model_; }
    const GpuSpec &gpu() const { return gpu_; }
    int tpDegree() const { return tp_; }
    const CostParams &params() const { return params_; }

    /** Effective FLOP rate across the TP group (peak * util * eff). */
    double effectiveFlops() const;

    /** Effective aggregate HBM bandwidth across the TP group. */
    double effectiveMemBandwidth() const;

    /** Base-model prefill compute time for a token count. */
    sim::SimTime prefillTime(std::int64_t tokens) const;

    /** MBGMM adapter overhead for prefilling tokens with a given rank. */
    sim::SimTime adapterPrefillTime(int rank, std::int64_t tokens) const;

    /**
     * Combined prefill step time for a set of (tokens, rank) requests
     * prefilled together in one iteration. The MBGMM fixed cost is paid
     * once per invocation, the per-token terms sum.
     */
    sim::SimTime prefillStepTime(
        const std::vector<std::pair<std::int64_t, int>> &reqs) const;

    /**
     * One decode iteration over a batch given as its adapter ranks, in
     * batch order, and the KV tokens read by the whole batch (the sum
     * of every request's prompt + generated tokens). The per-request
     * terms add in batch order and the KV bytes are an exact integer,
     * so the time does not depend on how the KV tokens split between
     * requests.
     */
    sim::SimTime decodeIterTime(const int *ranks, std::size_t count,
                                std::int64_t kvTokens) const;

    /** decodeIterTime over the given batch composition, bit-equal to
     * the kernel above over its ranks and summed KV tokens. */
    sim::SimTime decodeIterTime(const std::vector<DecodeSlot> &batch) const;

    /**
     * Host->GPU transfer time for an adapter of the given byte size,
     * including per-transfer setup and TP synchronisation. This is the
     * service time used by the PCIe link model; queueing is on top.
     */
    sim::SimTime adapterLoadTime(std::int64_t bytes) const;

    /** TTFT of a lone request on an idle engine (Fig. 2/3 conditions). */
    sim::SimTime isolatedTtft(std::int64_t inputTokens, int rank,
                              std::int64_t adapterBytes,
                              bool includeLoad) const;

    /**
     * End-to-end latency of a lone request on an idle engine; the
     * slowdown-denominator of §3.3.
     */
    sim::SimTime isolatedE2e(std::int64_t inputTokens,
                             std::int64_t outputTokens, int rank,
                             std::int64_t adapterBytes,
                             bool includeLoad) const;

  private:
    double tpEfficiency() const;

    ModelSpec model_;
    GpuSpec gpu_;
    int tp_;
    CostParams params_;
};

} // namespace chameleon::model

#endif // CHAMELEON_MODEL_COST_MODEL_H
