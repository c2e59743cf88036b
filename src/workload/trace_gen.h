/**
 * @file
 * Synthetic trace generation.
 *
 * Builds traces with the statistical properties of the paper's workloads
 * (§5.1): Poisson inter-arrival times, heavy-tailed (lognormal) input and
 * output lengths scaled to the testbed, and adapter assignment with a
 * configurable rank-popularity distribution across the five paper ranks
 * and a power-law adapter-popularity distribution within a rank. Presets
 * approximate the Azure/Splitwise conversation trace and the shorter
 * WildChat-1M / LMSYS-Chat-1M datasets (§5.4.4).
 */

#ifndef CHAMELEON_WORKLOAD_TRACE_GEN_H
#define CHAMELEON_WORKLOAD_TRACE_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "model/adapter.h"
#include "simkit/distributions.h"
#include "simkit/name_table.h"
#include "simkit/rng.h"
#include "workload/trace.h"

namespace chameleon::workload {

/** Popularity shapes used in §5.4.2 (U-U / U-P / P-P). */
enum class Popularity { Uniform, PowerLaw };

/** The Popularity names: uniform, powerlaw. */
const sim::NameTable<Popularity> &popularityTable();

/** Lognormal length distribution with clamping. */
struct LengthDist
{
    /** Median length in tokens (exp of the log-space mean). */
    double median = 48.0;
    /** Log-space standard deviation (tail heaviness). */
    double sigma = 1.0;
    std::int64_t minTokens = 4;
    std::int64_t maxTokens = 2000;

    /** Mean of the clamped distribution (analytic, pre-clamp approx). */
    double approxMean() const;
};

bool operator==(const LengthDist &a, const LengthDist &b);

/** A temporary load burst: the arrival rate is multiplied inside it. */
struct Burst
{
    double startSeconds = 0.0;
    double endSeconds = 0.0;
    double rateMultiplier = 1.0;
};

bool operator==(const Burst &a, const Burst &b);

/** Full generator configuration. */
struct TraceGenConfig
{
    /** Poisson arrival rate, requests per second. */
    double rps = 8.0;
    /** Trace length in seconds. */
    double durationSeconds = 300.0;
    LengthDist input{};
    LengthDist output{};
    /** Number of distinct adapters (0 disables adapters entirely). */
    int numAdapters = 100;
    /** Popularity of the five rank classes. */
    Popularity rankPopularity = Popularity::Uniform;
    /** Popularity of adapters within a rank class. */
    Popularity adapterPopularity = Popularity::PowerLaw;
    /** Optional load bursts. */
    std::vector<Burst> bursts{};
    /**
     * Periodic burstiness (LLM arrivals come in bursts, §3.1): every
     * burstPeriodSeconds, the rate is multiplied by burstMultiplier for
     * burstDurationSeconds. Base and burst rates are normalised so the
     * mean load stays at `rps`. burstMultiplier = 1 disables this.
     */
    double burstMultiplier = 1.0;
    double burstPeriodSeconds = 60.0;
    double burstDurationSeconds = 8.0;
    /** RNG seed; same seed + config -> identical trace. */
    std::uint64_t seed = 42;
    /**
     * Multi-tenant generation. With numTenants <= 1 the generator takes
     * the exact pre-tenancy code path (every request gets tenant 0).
     * With more, each tenant runs an independent arrival process at an
     * equal share of `rps` and the per-tenant streams are merged by
     * arrival.
     */
    int numTenants = 1;
    /**
     * Noisy-neighbour storm: tenant 0 runs at stormMultiplier x its
     * share over the middle half of the trace, [0.25, 0.75) x
     * durationSeconds, leaving clean head and tail windows.
     * A multiplier <= 1 disables it.
     */
    double stormMultiplier = 1.0;
};

/** Field by field over the schema's list (chameleon/spec_schema.h),
 * which also declares each key's bound. */
bool operator==(const TraceGenConfig &a, const TraceGenConfig &b);

/** Splitwise-like conversation workload (testbed-scaled lengths). */
TraceGenConfig splitwiseLike();
/** WildChat-1M-like workload: shorter inputs and outputs (§5.4.4). */
TraceGenConfig wildchatLike();
/** LMSYS-Chat-1M-like workload: short inputs, short outputs (§5.4.4). */
TraceGenConfig lmsysLike();

/** Set `*out` to the named preset (splitwise | wildchat | lmsys);
 * returns false, leaving `*out` alone, on unknown names. */
bool tracePresetByName(const std::string &name, TraceGenConfig *out);

/** Comma-separated preset names, for error messages. */
const char *tracePresetNames();

/** Generates traces and assigns adapters per the configuration. */
class TraceGenerator
{
  public:
    TraceGenerator(TraceGenConfig config, const model::AdapterPool *pool);

    /** Generate a full trace. */
    Trace generate();

    const TraceGenConfig &config() const { return config_; }

  private:
    std::int64_t sampleLength(const LengthDist &dist, sim::Rng &rng) const;
    model::AdapterId sampleAdapter(sim::Rng &rng) const;
    std::vector<Request> generateTenant(TenantId tenant, double shareRps,
                                        sim::Rng root) const;

    TraceGenConfig config_;
    const model::AdapterPool *pool_;
    std::vector<std::vector<model::AdapterId>> rankBuckets_;
    std::unique_ptr<sim::PowerLawSampler> rankSampler_;
    std::vector<sim::PowerLawSampler> withinSamplers_;
};

} // namespace chameleon::workload

#endif // CHAMELEON_WORKLOAD_TRACE_GEN_H
