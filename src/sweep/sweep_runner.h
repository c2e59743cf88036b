/**
 * @file
 * SweepRunner: execute a SweepSpec grid into one consolidated report.
 *
 * Expands the sweep (sweep_spec.h), generates the shared traces (one
 * per distinct trace configuration, so every system at a load sees
 * identical arrivals), runs each cell through the existing
 * core::Runner, and emits one BenchJson with a row per cell. Cells are
 * independent simulations, so the runner can execute them on a thread
 * pool (spec.threads); results are reported in cell order regardless
 * of scheduling, and every cell's trace and router are seeded with
 * the sweep seed, so the same sweep JSON + seed produces a
 * byte-identical BenchJson at any thread count (tests/sweep_test.cc
 * asserts this).
 *
 * bench/fidelity.cc runs its paper-figure scenarios on this class and
 * bench/fig26_routing wraps it; tools/chameleon_sweep.cc drives it from
 * a JSON file.
 */

#ifndef CHAMELEON_SWEEP_SWEEP_RUNNER_H
#define CHAMELEON_SWEEP_SWEEP_RUNNER_H

#include <memory>
#include <vector>

#include "chameleon/system.h"
#include "sweep/bench_json.h"
#include "sweep/sweep_spec.h"
#include "workload/trace.h"

namespace chameleon::sweep {

/** One executed cell: its descriptor plus the full run report. */
struct CellResult
{
    SweepCell cell;
    core::RunReport report;
};

/** Executes one SweepSpec; reusable for repeated runs. */
class SweepRunner
{
  public:
    /**
     * Expands the sweep, builds the adapter pool, and generates the
     * shared traces. Fails fast (CHM_FATAL) on an invalid sweep; use
     * expandSweep() directly for recoverable validation.
     */
    explicit SweepRunner(SweepSpec spec);
    ~SweepRunner();

    const SweepSpec &spec() const { return spec_; }
    const std::vector<SweepCell> &cells() const { return cells_; }
    const workload::Trace &trace(std::size_t index) const
    {
        return traces_[index];
    }
    const model::AdapterPool *pool() const { return pool_.get(); }

    /**
     * Run every cell (spec.threads workers; 1 = serial) and return the
     * results in cell order.
     */
    std::vector<CellResult> run() const;

    /** Append one consolidated row per result to `json`. */
    static void appendRows(BenchJson &json,
                           const std::vector<CellResult> &results);

    /** run() + appendRows() into a document named after the sweep. */
    BenchJson runToBenchJson() const;

  private:
    SweepSpec spec_;
    std::unique_ptr<model::AdapterPool> pool_;
    std::vector<SweepCell> cells_;
    std::vector<workload::Trace> traces_;
};

} // namespace chameleon::sweep

#endif // CHAMELEON_SWEEP_SWEEP_RUNNER_H
