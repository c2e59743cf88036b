/**
 * @file
 * Row-aligned BenchJson baseline comparison (chameleon_sweep
 * --baseline, and the CI perf/determinism gate built on it).
 *
 * Two sweep documents from the same sweep JSON + seed are comparable
 * row by row: expandSweep emits cells in a deterministic grid order
 * and the runner stores results at their cell index, so row i of the
 * current document and row i of the baseline describe the same cell.
 * The comparison distinguishes three severities:
 *
 *   structural      row counts differ, a cell's identity fields
 *                   (system, rps, replicas, trace_seed, and every
 *                   dotted axis column such as "cluster.router")
 *                   moved, or the column sets
 *                   diverge.
 *                   The documents are not the same sweep — fatal.
 *   hash mismatch   a cell's event_hash differs: the simulation
 *                   dispatched a different event stream for the same
 *                   spec + seed. Determinism regression — fatal.
 *   numeric drift   a metric moved by more than the relative
 *                   tolerance while the event stream stayed
 *                   identical. With equal hashes the simulation
 *                   behaved identically, so drift beyond tolerance
 *                   can only come from post-simulation accounting —
 *                   reported as a warning.
 */

#ifndef CHAMELEON_SWEEP_BASELINE_DIFF_H
#define CHAMELEON_SWEEP_BASELINE_DIFF_H

#include <cstddef>
#include <string>
#include <vector>

#include "simkit/json.h"

namespace chameleon::sweep {

/** Outcome of one row-aligned baseline comparison. */
struct BaselineDiff
{
    /** One diverging field of one row. */
    struct Mismatch
    {
        std::size_t row = 0;
        std::string key;
        std::string baseline; // literal as printed in the document
        std::string current;
    };

    /** Document-shape problems (fatal; human-readable messages). */
    std::vector<std::string> structural;
    /** event_hash / identity-string divergences (fatal). */
    std::vector<Mismatch> hashMismatches;
    /** Numeric fields beyond the relative tolerance (warnings). */
    std::vector<Mismatch> drifts;

    /** No structural problems and no hash mismatches (drift alone
     * does not fail the gate). */
    bool
    passed() const
    {
        return structural.empty() && hashMismatches.empty();
    }
};

/**
 * Compare `current` against `baseline` (both parsed BenchJson
 * documents: {"benchmark": ..., "rows": [...]}), aligning rows by
 * index. Numeric fields drift-check against `relTolerance`
 * (|cur - base| > relTolerance x |base|; an exact-zero baseline
 * drifts on any change); string fields — event_hash and the cell
 * identity columns — must match exactly.
 */
BaselineDiff diffAgainstBaseline(const sim::JsonValue &current,
                                 const sim::JsonValue &baseline,
                                 double relTolerance = 0.05);

} // namespace chameleon::sweep

#endif // CHAMELEON_SWEEP_BASELINE_DIFF_H
