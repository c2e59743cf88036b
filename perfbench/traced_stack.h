/**
 * @file
 * The traced run: the workload's serving stack rebuilt from public
 * pieces with a timing decorator at every layer boundary.
 *
 * core::Runner takes no router, scheduler or adapter manager from
 * outside, so the harness assembles the same program itself —
 * DataParallelCluster, ServingEngine, MlqScheduler, CacheManager,
 * routing::makeRouter, CacheFabric and attachFabric — wrapping each
 * replaceable part in a decorator that opens a span and forwards. The
 * run's canonical event hash must equal the untraced Runner's
 * RunReport::eventHash; main.cc fails the benchmark otherwise.
 */

#ifndef PERFBENCH_TRACED_STACK_H
#define PERFBENCH_TRACED_STACK_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chameleon/system_spec.h"
#include "model/adapter.h"
#include "span_tracer.h"
#include "workload/trace.h"

namespace perfbench {

/** One named per-layer value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one traced run. */
struct TracedRun
{
    std::uint64_t eventHash = 0;
    std::int64_t finished = 0;
    /** Wall seconds of the Runner::run equivalent: submit, simulate,
     * finalize and report building. */
    double runSeconds = 0.0;
    /** Per-layer metrics in report order. */
    std::vector<Metric> metrics;
    /** Spans closed per layer (indexed by Layer). */
    std::array<std::int64_t, static_cast<int>(Layer::Count)> calls{};
};

/**
 * Build the decorated stack for `spec` and run `trace` through it.
 * With a non-empty `spansOut`, raw spans of a deterministic sample of
 * simulated-second slices are written there as JSON.
 */
TracedRun runTraced(const chameleon::core::SystemSpec &spec,
                    const chameleon::model::AdapterPool &pool,
                    const chameleon::workload::Trace &trace,
                    const std::string &spansOut = "");

} // namespace perfbench

#endif // PERFBENCH_TRACED_STACK_H
