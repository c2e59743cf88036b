/**
 * @file
 * Shared scaffolding for the figure-reproduction benchmarks.
 *
 * Every bench binary regenerates one table/figure of the paper's
 * evaluation on the standard testbed configuration (§5.1): Llama-7B on
 * an A40-48GB GPU, Na=100 adapters with ranks {8,16,32,64,128}, uniform
 * rank popularity and power-law adapter popularity, Poisson arrivals
 * with Splitwise-like length distributions. Output is a plain-text
 * table on stdout with "paper reports" annotations, so each
 * experiment's paper-vs-measured gap can be read off its output.
 */

#ifndef CHAMELEON_BENCH_BENCH_UTIL_H
#define CHAMELEON_BENCH_BENCH_UTIL_H

#include <memory>
#include <string>
#include <vector>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/slo.h"
#include "simkit/timeseries.h"
#include "sweep/bench_json.h"
#include "workload/trace_gen.h"

namespace chameleon::bench {

/**
 * Machine-readable benchmark output: accumulates flat rows of fields
 * and writes {"benchmark": ..., "rows": [...]}. Now lives in the
 * library (sweep/bench_json.h) so SweepRunner can emit consolidated
 * documents; aliased here for the bench binaries.
 */
using BenchJson = sweep::BenchJson;

/** Paper load levels (§5.2): low / medium / high RPS on the A40. */
constexpr double kLowRps = 6.0;
constexpr double kMediumRps = 8.0;
constexpr double kHighRps = 9.5;

/** Standard single-GPU testbed: pool + hardware + workload template. */
struct Testbed
{
    std::unique_ptr<model::AdapterPool> pool;
    /** Hardware + base model shared by every system run here. */
    serving::EngineConfig engine;
    workload::TraceGenConfig wl;

    /**
     * Resolve a registry system name ("chameleon", "chameleon+gdsf",
     * ...) and stamp it with this testbed's hardware.
     */
    core::SystemSpec spec(const std::string &system) const;

    /** Generate the trace for a given load. */
    workload::Trace trace(double rps, double seconds,
                          std::uint64_t seed = 42) const;

    /** The paper's TTFT SLO: 5x mean isolated E2E for this workload. */
    double sloSeconds(const workload::Trace &t) const;

    /** Cost model matching the engine configuration. */
    model::CostModel costModel() const;
};

/** Llama-7B / A40 / Na adapters / Splitwise-like workload (§5.1). */
Testbed makeTestbed(int numAdapters = 100);

/** Testbed on an A100 with the given memory and base model. */
Testbed makeA100Testbed(const model::ModelSpec &model, int memGiB,
                        int numAdapters, int tpDegree = 1);

/** Run a fully configured spec over a trace (pool from the testbed). */
core::RunReport run(const Testbed &tb, const core::SystemSpec &spec,
                    const workload::Trace &trace);

/** Run a registry system name over a trace on this testbed. */
core::RunReport run(const Testbed &tb, const std::string &system,
                    const workload::Trace &trace);

/** Print a figure banner with the paper's headline expectation. */
void banner(const std::string &figure, const std::string &paperClaim);

/** Sweep loads and return (rps, metric(report)) rows for a system. */
std::vector<std::pair<double, double>> sweepLoads(
    const Testbed &tb, const std::string &system,
    const std::vector<double> &rpsList,
    double (*metric)(const core::RunReport &), double traceSeconds = 240.0);

/** P99 TTFT in each tumbling window of `window` that a record's first
 * token (arrival + ttft) falls in: (window start, seconds), in time
 * order. For latency-over-time figures. */
std::vector<sim::TimePoint>
p99TtftOverTime(const std::vector<serving::RequestRecord> &records,
                sim::SimTime window = 10 * sim::kSec);

} // namespace chameleon::bench

#endif // CHAMELEON_BENCH_BENCH_UTIL_H
