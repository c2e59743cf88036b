/**
 * @file
 * chameleon_sweep — run a whole scenario grid from one JSON file.
 *
 * Loads a SweepSpec (src/sweep/README.md documents the grammar),
 * expands it into cells (systems crossed with spec-path and workload
 * axes), runs every cell through the core Runner, prints a summary
 * table, and writes one consolidated BenchJson. Every cell's trace and
 * router are seeded with the sweep seed, so the same file + seed
 * reproduces the identical document at any --threads.
 *
 * Examples:
 *   chameleon_sweep --config examples/sweeps/minimal.json
 *   chameleon_sweep --config examples/sweeps/fig17_policy_grid.json
 *   chameleon_sweep --config sweep.json --dry-run     # list the cells
 *   chameleon_sweep --config sweep.json --threads 8 --out grid.json
 *
 * Regression gate (--baseline): compare this run's document against a
 * previously committed one, row-aligned (see sweep/baseline_diff.h).
 * A per-cell event_hash mismatch or a structural difference exits 1 —
 * the simulation is no longer deterministic against the baseline;
 * numeric drift beyond 5% with identical hashes only warns.
 *
 *   chameleon_sweep --config sweep.json --baseline bench/baselines/old.json
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "simkit/flags.h"
#include "sweep/baseline_diff.h"
#include "sweep/sweep_runner.h"
#include "tool_io.h"

using namespace chameleon;

int
main(int argc, char **argv)
{
    sim::FlagSet flags("chameleon_sweep");
    auto *config = flags.addString(
        "config", "", "sweep JSON file (\"-\" reads stdin); required");
    auto *out = flags.addString(
        "out", "", "override the BenchJson output path");
    auto *threads = flags.addInt(
        "threads", 0, "override worker threads (0 = use the file's)");
    auto *dry_run = flags.addBool(
        "dry-run", false, "expand and list the cells without running");
    auto *metrics_dir = flags.addString(
        "metrics-dir", "",
        "also dump each cell's metrics snapshot as "
        "DIR/metrics_cell<N>.json (N = cell index in the grid order)");
    auto *baseline = flags.addString(
        "baseline", "",
        "compare against this BenchJson document, row-aligned: "
        "event-hash or structural mismatches fail (exit 1), numeric "
        "drift > 5% warns");
    if (!flags.parse(argc, argv))
        return 2;

    if (config->empty()) {
        std::fprintf(stderr,
                     "chameleon_sweep: --config is required\n%s",
                     flags.usage().c_str());
        return 2;
    }

    std::string error;
    auto spec = sweep::sweepFromJson(
        tools::readAll(*config, "chameleon_sweep"), &error);
    if (!spec.has_value()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (!out->empty())
        spec->output = *out;
    if (*threads < 0) {
        // A negative override silently falling back to the file's
        // value would misread as a valid run of the requested count.
        std::fprintf(stderr,
                     "chameleon_sweep: --threads must be >= 1 "
                     "(0 = use the file's)\n");
        return 2;
    }
    if (*threads > 0)
        spec->threads = static_cast<int>(*threads);

    // Expand up front so an invalid grid is a clean error (exit 2),
    // not a CHM_CHECK abort out of the runner's constructor.
    auto cells = sweep::expandSweep(*spec, &error);
    if (!cells.has_value()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    if (*dry_run) {
        std::printf("sweep %s: %zu cells\n", spec->name.c_str(),
                    cells->size());
        std::printf("%-32s %8s %9s %12s  %s\n", "system", "rps",
                    "replicas", "trace_seed", "axes");
        for (const auto &cell : *cells) {
            std::printf("%-32s %8.2f %9d %12llu  %s\n",
                        cell.system.c_str(), cell.trace.rps,
                        cell.spec.cluster.replicas,
                        static_cast<unsigned long long>(cell.trace.seed),
                        cell.overrides.empty() ? "-"
                                               : cell.axesLabel().c_str());
        }
        return 0;
    }

    sweep::SweepRunner runner(std::move(*spec));
    std::printf("sweep %s: %zu cells, %d thread%s, %d adapters\n\n",
                runner.spec().name.c_str(), runner.cells().size(),
                runner.spec().threads,
                runner.spec().threads == 1 ? "" : "s",
                runner.cells().front().trace.numAdapters);

    const auto results = runner.run();

    std::printf("%-32s %8s %9s %9s %12s %12s %7s  %s\n", "system", "rps",
                "replicas", "finished", "p50ttft(s)", "p99ttft(s)", "hit%",
                "axes");
    for (const auto &result : results) {
        const auto &cell = result.cell;
        const auto &s = result.report.stats;
        std::printf("%-32s %8.2f %9d %9lld %12.3f %12.3f %6.1f%%  %s\n",
                    cell.system.c_str(), cell.trace.rps,
                    cell.spec.cluster.replicas,
                    static_cast<long long>(s.finished), s.ttft.p50(),
                    s.ttft.p99(), 100.0 * result.report.cacheHitRate,
                    cell.axesLabel().c_str());
    }

    sweep::BenchJson json(runner.spec().name);
    sweep::SweepRunner::appendRows(json, results);
    json.write(runner.spec().outputPath());

    if (!baseline->empty()) {
        std::string parseError;
        const auto baseDoc = sim::parseJson(
            tools::readAll(*baseline, "chameleon_sweep"), &parseError);
        if (!baseDoc.has_value()) {
            std::fprintf(stderr, "chameleon_sweep: --baseline %s: %s\n",
                         baseline->c_str(), parseError.c_str());
            return 2;
        }
        const auto curDoc = sim::parseJson(json.toString());
        CHM_CHECK(curDoc.has_value(),
                  "sweep output is not valid JSON");
        const auto diff =
            sweep::diffAgainstBaseline(*curDoc, *baseDoc, 0.05);
        for (const auto &problem : diff.structural)
            std::fprintf(stderr, "baseline: FAIL %s\n", problem.c_str());
        for (const auto &m : diff.hashMismatches) {
            std::fprintf(stderr,
                         "baseline: FAIL row %zu: event_hash %s -> %s "
                         "(event stream diverged from the baseline)\n",
                         m.row, m.baseline.c_str(), m.current.c_str());
        }
        for (const auto &m : diff.drifts) {
            std::fprintf(stderr,
                         "baseline: warn row %zu: %s drifted %s -> %s\n",
                         m.row, m.key.c_str(), m.baseline.c_str(),
                         m.current.c_str());
        }
        if (!diff.passed()) {
            std::fprintf(stderr,
                         "baseline: %zu structural problem(s), %zu hash "
                         "mismatch(es) against %s\n",
                         diff.structural.size(),
                         diff.hashMismatches.size(), baseline->c_str());
            return 1;
        }
        std::printf("\nbaseline: OK — %zu rows match %s (%zu numeric "
                    "drift warning%s)\n",
                    json.rowCount(), baseline->c_str(),
                    diff.drifts.size(),
                    diff.drifts.size() == 1 ? "" : "s");
    }

    if (!metrics_dir->empty()) {
        std::filesystem::create_directories(*metrics_dir);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto path = std::filesystem::path(*metrics_dir) /
                              ("metrics_cell" + std::to_string(i) +
                               ".json");
            std::ofstream outFile(path);
            CHM_CHECK(outFile.good(), "cannot open " << path.string());
            outFile << results[i].report.metrics.dump() << '\n';
        }
        std::printf("\nper-cell metrics written to %s/metrics_cell"
                    "<0..%zu>.json\n",
                    metrics_dir->c_str(), results.size() - 1);
    }
    return 0;
}
