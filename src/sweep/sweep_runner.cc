#include "sweep/sweep_runner.h"

#include <atomic>
#include <cstdio>
#include <thread>

#include "simkit/check.h"
#include "workload/trace_gen.h"

namespace chameleon::sweep {

namespace {

/**
 * Event hashes travel as fixed-width hex strings, not JSON numbers: a
 * 64-bit hash round-trips a double-based JSON parser lossily, and the
 * --baseline gate compares these fields exactly.
 */
std::string
hashLiteral(std::uint64_t hash)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace

SweepRunner::SweepRunner(SweepSpec spec) : spec_(std::move(spec))
{
    std::string error;
    auto cells = expandSweep(spec_, &error);
    CHM_CHECK(cells.has_value(), error);
    cells_ = std::move(*cells);

    // expandSweep guarantees every cell runs the same model and pool.
    const auto &first = cells_.front();
    if (first.trace.numAdapters > 0) {
        pool_ = std::make_unique<model::AdapterPool>(
            first.spec.engine.model, first.trace.numAdapters);
    }

    // One trace per distinct configuration, indexed by
    // SweepCell::traceIndex (expandSweep allocated the indices).
    for (const auto &cell : cells_) {
        if (cell.traceIndex == traces_.size())
            traces_.push_back(
                workload::TraceGenerator(cell.trace, pool_.get()).generate());
    }
}

SweepRunner::~SweepRunner() = default;

std::vector<CellResult>
SweepRunner::run() const
{
    std::vector<CellResult> results(cells_.size());

    // Each cell is a self-contained simulation (own Simulator, engines,
    // RNG streams) over shared read-only traces and pool, so cells can
    // run concurrently; results land at their cell index, keeping the
    // output order (and the emitted BenchJson) thread-count-invariant.
    auto runRange = [this, &results](std::atomic<std::size_t> &next) {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= cells_.size())
                return;
            const SweepCell &cell = cells_[i];
            core::Runner runner(cell.spec, pool_.get());
            // A tenant storm only discriminates between schedulers
            // while its backlog is contended — a full drain finishes
            // every request under any policy and converges the
            // fairness index to the trace's demand mix — so storm
            // cells measure under a bounded window (fig29's rows in
            // bench/fidelity.cc read them).
            const sim::SimTime drainWindow =
                cell.trace.stormMultiplier > 1.0 ? 30 * sim::kSec
                                                 : 3600 * sim::kSec;
            results[i] = CellResult{
                cell, runner.run(traces_[cell.traceIndex],
                                 drainWindow)};
        }
    };

    std::atomic<std::size_t> next{0};
    const int workers = std::min<int>(
        std::max(1, spec_.threads), static_cast<int>(cells_.size()));
    if (workers <= 1) {
        runRange(next);
        return results;
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        threads.emplace_back([&] { runRange(next); });
    for (auto &t : threads)
        t.join();
    return results;
}

void
SweepRunner::appendRows(BenchJson &json,
                        const std::vector<CellResult> &results)
{
    for (const auto &result : results) {
        const auto &cell = result.cell;
        const auto &report = result.report;
        const auto &s = report.stats;
        json.row()
            .field("system", cell.system)
            .field("rps", cell.trace.rps)
            .field("replicas",
                   static_cast<std::int64_t>(cell.spec.cluster.replicas));
        // One column per axis, named by its path.
        for (const auto &[path, value] : cell.overrides)
            json.field(path, value);
        json.field("trace_seed", cell.trace.seed)
            .field("submitted", s.submitted)
            .field("finished", s.finished)
            .field("preemptions", s.preemptions)
            .field("p50_ttft_s", s.ttft.p50())
            .field("p90_ttft_s", s.ttft.p90())
            .field("p99_ttft_s", s.ttft.p99())
            .field("p50_tbt_ms", s.tbt.p50())
            .field("p99_tbt_ms", s.tbt.p99())
            .field("p50_e2e_s", s.e2e.p50())
            .field("p99_e2e_s", s.e2e.p99())
            .field("p99_queue_delay_s", s.queueDelay.p99())
            .field("mean_load_stall_ms", s.loadStall.mean())
            .field("cache_hit_rate", report.cacheHitRate)
            .field("cache_evictions", report.cacheEvictions)
            .field("adapter_pcie_fetches", report.pcieTransfers)
            .field("adapter_pcie_gb",
                   static_cast<double>(report.pcieBytes) / 1e9)
            .field("mlq_queues", static_cast<std::int64_t>(report.mlqQueues))
            .field("peak_replicas",
                   static_cast<std::int64_t>(report.peakReplicas))
            .field("scale_ups", report.scaleUps)
            .field("scale_downs", report.scaleDowns)
            .field("boot_events", report.bootEvents)
            .field("total_boot_s", report.totalBootSeconds)
            .field("requests_delayed_by_boot",
                   report.requestsDelayedByBoot)
            .field("fabric_migrations", report.fabricMigrations)
            .field("fabric_peer_gb",
                   static_cast<double>(report.fabricPeerBytes) / 1e9)
            .field("fairness_index", report.fairnessIndex)
            .field("slo_attainment", report.sloAttainment)
            .field("event_hash", hashLiteral(report.eventHash));
    }
}

BenchJson
SweepRunner::runToBenchJson() const
{
    BenchJson json(spec_.name);
    appendRows(json, run());
    return json;
}

} // namespace chameleon::sweep
