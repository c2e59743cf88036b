/**
 * @file
 * Figure 26 (extension) — the cluster routing subsystem.
 *
 * Goes beyond the paper's §4.4 round-robin/JSQ dispatch: sweeps
 * replica count x routing policy x adapter-popularity skew over
 * Chameleon replicas. The claim under test: with a skewed (Zipf)
 * adapter distribution, affinity routing turns N replicated adapter
 * caches into an effectively partitioned cache — fewer adapter PCIe
 * fetches and a lower p99 TTFT than popularity-blind round-robin,
 * which loads every hot adapter on every replica. A final section
 * exercises the predictor-driven autoscaler on the same traces.
 *
 * The policy x replicas grid is a sweep::SweepRunner run per skew
 * setting (cluster.replicas and cluster.router are sweep axes; the
 * load scales per replica via rps_per_replica). The autoscale
 * on/off section is the cluster.autoscale axis over the same bursty
 * workload, with the autoscaler knobs as single-valued axes — nothing
 * is hand-rolled any more. Emits BENCH_routing.json for trend
 * tracking.
 */

#include <cstdio>

#include "bench_util.h"
#include "routing/router.h"
#include "sweep/sweep_runner.h"

using namespace chameleon;

namespace {

constexpr double kRpsPerReplica = 8.5;
constexpr double kTraceSeconds = 160.0;

/** The grid of one skew setting: chameleon x {2,4} replicas x router. */
sweep::SweepSpec
gridSpec(bool skewed)
{
    sweep::SweepSpec sw;
    sw.name = "fig26_routing";
    sw.systems = {"chameleon"};
    sw.rpsPerReplica = true;
    sw.axes = {sweep::SweepAxis::parse("cluster.replicas", {"2", "4"}),
               sweep::SweepAxis::parse("cluster.router",
                                       {"rr", "jsq", "p2c", "affinity",
                                        "affinity-dir"})};
    sw.workload.rps = kRpsPerReplica;
    sw.workload.durationSeconds = kTraceSeconds;
    sw.workload.numAdapters = 200;
    sw.workload.adapterPopularity = skewed ? workload::Popularity::PowerLaw
                                           : workload::Popularity::Uniform;
    return sw;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 26 — cluster routing: policy x replicas x adapter skew",
        "affinity dispatch partitions the replicated adapter caches: "
        "fewer PCIe fetches and lower tail TTFT than round-robin under "
        "skewed adapter popularity");

    bench::BenchJson json("fig26_routing");

    std::printf("%-8s %9s %-15s %9s %12s %12s %10s %7s\n", "skew",
                "replicas", "router", "finished", "p50ttft(s)",
                "p99ttft(s)", "fetches", "hit%");
    for (const bool skewed : {false, true}) {
        sweep::SweepRunner runner(gridSpec(skewed));
        const auto results = runner.run();
        const char *skewName = skewed ? "zipf" : "uniform";
        for (const auto &result : results) {
            const auto &cell = result.cell;
            const auto &report = result.report;
            std::printf(
                "%-8s %9d %-15s %9lld %12.3f %12.3f %10lld %6.1f%%\n",
                skewName, cell.spec.cluster.replicas,
                cell.axisValue("cluster.router").c_str(),
                static_cast<long long>(report.stats.finished),
                report.stats.ttft.p50(), report.stats.ttft.p99(),
                static_cast<long long>(report.pcieTransfers),
                100.0 * report.cacheHitRate);
            json.row()
                .field("section", std::string("policy_sweep"))
                .field("skew", std::string(skewName))
                .field("replicas", static_cast<std::int64_t>(
                                       cell.spec.cluster.replicas))
                .field("router", cell.axisValue("cluster.router"))
                .field("rps", cell.trace.rps)
                .field("finished", report.stats.finished)
                .field("p50_ttft_s", report.stats.ttft.p50())
                .field("p99_ttft_s", report.stats.ttft.p99())
                .field("p99_tbt_ms", report.stats.tbt.p99())
                .field("adapter_pcie_fetches", report.pcieTransfers)
                .field("adapter_pcie_gb",
                       static_cast<double>(report.pcieBytes) / 1e9)
                .field("cache_hit_rate", report.cacheHitRate)
                .field("cache_evictions", report.cacheEvictions);
        }
    }

    // --- autoscaling: bursty load, on/off as a sweep axis ---
    sweep::SweepSpec autoscaleGrid;
    autoscaleGrid.name = "fig26_autoscale";
    autoscaleGrid.systems = {"chameleon"};
    autoscaleGrid.axes = {
        sweep::SweepAxis::parse("cluster.replicas", {"2"}),
        sweep::SweepAxis::parse("cluster.router", {"affinity"}),
        sweep::SweepAxis::parse("cluster.autoscale", {"false", "true"}),
        sweep::SweepAxis::parse("cluster.autoscaler.min_replicas", {"2"}),
        sweep::SweepAxis::parse("cluster.autoscaler.max_replicas", {"6"}),
        {"cluster.autoscaler.replica_service_rps",
         {sim::JsonValue::makeNumber(kRpsPerReplica)}}};
    autoscaleGrid.workload.rps = 2.0 * kRpsPerReplica;
    autoscaleGrid.workload.durationSeconds = kTraceSeconds;
    autoscaleGrid.workload.numAdapters = 200;
    autoscaleGrid.workload.adapterPopularity = workload::Popularity::PowerLaw;
    autoscaleGrid.workload.burstMultiplier = 4.0; // §3.1 bursty arrivals
    autoscaleGrid.workload.burstPeriodSeconds = 60.0;
    autoscaleGrid.workload.burstDurationSeconds = 15.0;

    std::printf("\n%-10s %9s %9s %9s %9s %12s\n", "mode", "start",
                "peak", "ups", "downs", "p99ttft(s)");
    sweep::SweepRunner autoscaleRunner(autoscaleGrid);
    for (const auto &result : autoscaleRunner.run()) {
        const auto &cell = result.cell;
        const auto &report = result.report;
        const char *mode =
            cell.spec.cluster.autoscale ? "autoscale" : "fixed";
        std::printf("%-10s %9d %9zu %9lld %9lld %12.3f\n", mode,
                    cell.spec.cluster.replicas, report.peakReplicas,
                    static_cast<long long>(report.scaleUps),
                    static_cast<long long>(report.scaleDowns),
                    report.stats.ttft.p99());
        json.row()
            .field("section", std::string("autoscale"))
            .field("mode", mode)
            .field("rps", cell.trace.rps)
            .field("finished", report.stats.finished)
            .field("p99_ttft_s", report.stats.ttft.p99())
            .field("peak_replicas",
                   static_cast<std::int64_t>(report.peakReplicas))
            .field("final_active_replicas",
                   static_cast<std::int64_t>(report.finalActiveReplicas))
            .field("scale_ups", report.scaleUps)
            .field("scale_downs", report.scaleDowns);
    }

    json.write("BENCH_routing.json");
    return 0;
}
