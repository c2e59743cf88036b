/**
 * @file
 * Figure 17: P99 TTFT by adapter rank (normalised to S-LoRA) for
 * Chameleon with LRU, FairShare, and the tuned compound eviction.
 *
 * The policy grid itself is a sweep::SweepRunner run (the same grid
 * is reproducible without this binary from
 * examples/sweeps/fig17_policy_grid.json via chameleon_sweep); this
 * wrapper adds the per-rank breakdown the figure plots, which needs
 * the per-request records behind each cell's report.
 */

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "simkit/stats.h"
#include "sweep/sweep_runner.h"

using namespace chameleon;

namespace {

std::map<int, double>
p99ByRank(const serving::EngineStats &stats)
{
    std::map<int, sim::PercentileTracker> by_rank;
    sim::PercentileTracker total;
    for (const auto &rec : stats.records) {
        by_rank[rec.rank].add(sim::toSeconds(rec.ttft));
        total.add(sim::toSeconds(rec.ttft));
    }
    std::map<int, double> out;
    for (auto &[rank, tracker] : by_rank)
        out[rank] = tracker.p99();
    out[0] = total.p99(); // rank 0 slot holds the whole-trace value
    return out;
}

} // namespace

int
main()
{
    bench::banner("Figure 17 — eviction policies, P99 TTFT by rank",
                  "all caches beat S-LoRA (LRU -18%, FairShare -22%, "
                  "Chameleon -26% on the total trace); the tuned policy "
                  "helps large ranks most (-12% vs FairShare at rank 128)");

    sweep::SweepSpec sw;
    sw.name = "fig17_cache_policies";
    sw.workload.rps = bench::kMediumRps;
    sw.workload.durationSeconds = 300.0;
    sw.workload.numAdapters = 200;
    // Memory-tight configuration: the paper's testbed keeps far less
    // idle memory than our 48 GB model, so we reserve extra workspace to
    // put the cache under real eviction pressure (~11 GB for KV+cache).
    sw.axes.push_back({"engine.workspace_per_gpu",
                       {sim::JsonValue::makeInt(24ll << 30)}});

    // Enumerate the cache-policy axis from the registry: the S-LoRA
    // baseline plus every registered full system that differs from
    // "chameleon" only in its eviction score. A newly registered
    // eviction preset shows up here without touching this bench.
    const auto &registry = core::SystemRegistry::global();
    sw.systems = {"slora"};
    for (const auto &name : registry.names()) {
        const auto spec = registry.lookup(name);
        if (spec.scheduler.policy == core::SchedulerPolicy::Mlq &&
            spec.adapters.policy == core::AdapterPolicy::ChameleonCache &&
            spec.scheduler.wrsForm == core::WrsForm::Degree2 &&
            spec.scheduler.dynamicQueues && spec.scheduler.bypass &&
            !spec.adapters.predictivePrefetch) {
            sw.systems.push_back(name);
        }
    }

    sweep::SweepRunner runner(std::move(sw));
    const auto results = runner.run();

    std::map<std::string, std::map<int, double>> rows;
    for (const auto &result : results)
        rows[result.cell.system] = p99ByRank(result.report.stats);

    const auto &base = rows["slora"];
    std::printf("%-22s", "system");
    for (int rank : model::paperRanks())
        std::printf(" %8s%d", "r", rank);
    std::printf(" %9s\n", "total");
    for (const auto &result : results) {
        const auto &name = result.cell.system;
        std::printf("%-22s", name.c_str());
        for (int rank : model::paperRanks()) {
            std::printf(" %9.2f",
                        rows[name].at(rank) / base.at(rank));
        }
        std::printf(" %9.2f\n", rows[name].at(0) / base.at(0));
    }
    std::printf("\n(values: P99 TTFT normalised to S-LoRA per rank)\n");

    bench::BenchJson json(runner.spec().name);
    sweep::SweepRunner::appendRows(json, results);
    json.write("BENCH_cache_policies.json");
    return 0;
}
