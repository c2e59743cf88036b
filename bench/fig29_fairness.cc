/**
 * @file
 * Figure 29 (extension) — multi-tenant fairness under a noisy neighbour.
 *
 * Four equal-weight tenants share one engine; tenant 0 storms to 8x its
 * share over the middle half of the trace. A FIFO queue serves the
 * storm in arrival order, so the aggressor captures service in
 * proportion to its arrivals and the victims' tail latency collapses
 * with it. WFQ (virtual-time start tags) and DRR (per-tenant deficit
 * ring) cap the aggressor at its weighted share, holding victim p99
 * TTFT and the Jain fairness index (per-tenant finished requests per
 * unit weight) while the backlog is live.
 *
 * Runs use a bounded drain window: fairness is about who gets served
 * while the storm's backlog is contended; an unbounded drain window
 * eventually finishes every request under any scheduler and converges
 * the index to the trace's demand mix.
 *
 * Two claims under test (CHM_CHECKed, so CI fails if they regress):
 *  1. Jain's index is strictly higher for wfq and drr than for fifo.
 *  2. Worst-victim p99 TTFT is lower under wfq and drr than under fifo.
 *
 * Emits BENCH_fairness.json.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "simkit/check.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

constexpr int kTenants = 4;
constexpr double kBaseRps = 8.0;
constexpr double kStormMultiplier = 8.0;
constexpr double kTraceSeconds = 240.0;
/** Measure while the storm backlog is live, not after a full drain. */
constexpr sim::SimTime kDrainWindow = 30 * sim::kSec;

struct SystemResult
{
    std::string scheduler;
    double jain = 0.0;
    double victimP99Ttft = 0.0;
};

} // namespace

int
main()
{
    bench::banner(
        "Figure 29 — noisy neighbour: WFQ/DRR vs FIFO fairness",
        "tenant 0 storms to 8x its share; FIFO lets it capture service "
        "in arrival order (victim p99 and Jain index collapse), while "
        "wfq/drr cap it at its weighted share and hold both");

    auto tb = bench::makeTestbed(100);
    auto wl = tb.wl;
    wl.rps = kBaseRps;
    wl.durationSeconds = kTraceSeconds;
    wl.numTenants = kTenants;
    // The storm: tenant 0 at 8x its share over the middle half (the
    // CLI/sweep convention).
    wl.stormMultiplier = kStormMultiplier;
    workload::TraceGenerator gen(wl, tb.pool.get());
    const auto trace = gen.generate();

    bench::BenchJson json("fig29_fairness");
    std::vector<SystemResult> results;

    std::printf("%-10s %8s %10s %10s %12s %12s %12s\n", "scheduler",
                "jain", "finished", "aggr_fin", "victim_fin",
                "victim_p99", "victim_slo%");
    for (const char *sched : {"fifo", "wfq", "drr"}) {
        auto spec = tb.spec(std::string("chameleon+") + sched);
        spec.tenancy.tenants = kTenants;
        core::Runner runner(spec, tb.pool.get());
        const auto report = runner.run(trace, kDrainWindow);

        SystemResult res;
        res.scheduler = sched;
        res.jain = report.fairnessIndex;
        std::int64_t aggrFinished = 0;
        std::int64_t victimFinished = 0;
        double victimSlo = 1.0;
        for (const auto &t : report.tenants) {
            if (t.tenant == 0) {
                aggrFinished = t.finished;
                continue;
            }
            victimFinished += t.finished;
            res.victimP99Ttft =
                std::max(res.victimP99Ttft, t.p99TtftSeconds);
            if (t.sloAttainment >= 0.0)
                victimSlo = std::min(victimSlo, t.sloAttainment);
        }
        std::printf("%-10s %8.4f %10lld %10lld %12lld %11.3fs %11.1f%%\n",
                    sched, res.jain,
                    static_cast<long long>(report.stats.finished),
                    static_cast<long long>(aggrFinished),
                    static_cast<long long>(victimFinished),
                    res.victimP99Ttft, 100.0 * victimSlo);

        json.row()
            .field("section", "summary")
            .field("scheduler", std::string(sched))
            .field("tenants", static_cast<std::int64_t>(kTenants))
            .field("rps", kBaseRps)
            .field("storm_multiplier", kStormMultiplier)
            .field("fairness_index", res.jain)
            .field("finished", report.stats.finished)
            .field("aggressor_finished", aggrFinished)
            .field("victim_finished", victimFinished)
            .field("victim_p99_ttft_s", res.victimP99Ttft)
            .field("victim_slo_attainment", victimSlo)
            .field("slo_attainment", report.sloAttainment);
        for (const auto &t : report.tenants) {
            json.row()
                .field("section", "tenant")
                .field("scheduler", std::string(sched))
                .field("tenant", static_cast<std::int64_t>(t.tenant))
                .field("finished", t.finished)
                .field("p50_ttft_s", t.p50TtftSeconds)
                .field("p99_ttft_s", t.p99TtftSeconds)
                .field("p99_e2e_s", t.p99E2eSeconds)
                .field("mean_slowdown", t.meanSlowdown)
                .field("slo_attainment", t.sloAttainment);
        }
        results.push_back(std::move(res));
    }

    const auto &fifo = results[0];
    const auto &wfq = results[1];
    const auto &drr = results[2];
    std::printf("\nverdict: jain fifo %.4f vs wfq %.4f vs drr %.4f; "
                "victim p99 fifo %.3fs vs wfq %.3fs vs drr %.3fs\n",
                fifo.jain, wfq.jain, drr.jain, fifo.victimP99Ttft,
                wfq.victimP99Ttft, drr.victimP99Ttft);
    CHM_CHECK(wfq.jain > fifo.jain && drr.jain > fifo.jain,
              "fair schedulers must beat FIFO's fairness index under "
              "the storm");
    CHM_CHECK(wfq.victimP99Ttft < fifo.victimP99Ttft &&
                  drr.victimP99Ttft < fifo.victimP99Ttft,
              "fair schedulers must hold victim p99 TTFT under the "
              "storm");

    json.write("BENCH_fairness.json");
    return 0;
}
