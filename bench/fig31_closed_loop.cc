/**
 * @file
 * Figure 31 (extension) — closing the control loop pays at the tail.
 *
 * An autoscaler that trusts nominal per-replica rates and a fixed
 * forecast horizon is blind twice over: a degraded replica (real
 * throughput well below its spec sheet) inflates the capacity signals,
 * and a scale-up decided "now" lands a full boot later than the
 * horizon assumed. This bench runs a fig28-shaped load step against a
 * mixed fleet whose base replica is throttled (admission caps the
 * nominal-rate model ignores), with a large replica boot latency, and
 * compares four control-plane configurations:
 *
 *   static      alpha 0: nominal rates, fixed horizon  (the open loop)
 *   measured    alpha 0.3: measured-EWMA rates, fixed horizon
 *   boot-aware  alpha 0, horizon >= next replica's boot time
 *   closed      alpha 0.3 + boot-aware horizon
 *
 * All four run identical traces and the same autoscaler watermarks;
 * only `measured_rate_alpha` (which feeds the measured rates into the
 * routing weights and the capacity signals alike) and
 * `boot_aware_horizon` differ.
 * The claim under test: the closed loop sees the fleet's real
 * (degraded) capacity and scales early enough that post-step arrivals
 * meet capacity instead of a backlog — a lower post-step p99 TTFT
 * than the static baseline, asserted with CHM_CHECK.
 *
 * Emits BENCH_closed_loop.json.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "routing/router.h"
#include "serving/cluster.h"
#include "simkit/check.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

constexpr double kBaseRps = 9.0;
constexpr double kStepMultiplier = 3.0;
constexpr double kStepStartSeconds = 60.0;
constexpr double kStepEndSeconds = 180.0;
constexpr double kTraceSeconds = 240.0;
// Longer than the default 15 s forecast horizon, so the boot-aware
// horizon has something to stretch: a scale-up decided now lands
// ~21 s later (weight load + boot constant).
constexpr double kBootMs = 20000.0;

struct ControlConfig
{
    const char *name;
    double measuredRateAlpha;
    bool bootAwareHorizon;
};

core::SystemSpec
controlSpec(bench::Testbed &tb, const ControlConfig &control)
{
    auto spec = tb.spec("chameleon");
    spec.cluster.replicas = 2;
    spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
    // A mixed fleet whose base replica is degraded: admission caps
    // throttle its real throughput far below nominalServiceRate (which
    // deliberately ignores them), so nominal capacity signals
    // overestimate the fleet while measured signals see the truth.
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    serving::EngineConfig degraded = spec.engine;
    degraded.maxRunning = 4;
    degraded.maxAdmissionsPerIter = 1;
    degraded.admissionTokenBudget = 128;
    spec.cluster.replicaEngines = {fast, degraded};
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 2;
    spec.cluster.autoscaler.maxReplicas = 8;
    spec.cluster.autoscaler.replicaServiceRps = kBaseRps;
    spec.cluster.autoscaler.downCooldownPeriods = 4;
    spec.cluster.autoscaler.bootMs = kBootMs;
    spec.cluster.autoscaler.measuredRateAlpha = control.measuredRateAlpha;
    spec.cluster.autoscaler.bootAwareHorizon = control.bootAwareHorizon;
    return spec;
}

/** p99 TTFT (seconds) over requests arriving at/after the load step. */
double
postStepP99Ttft(const core::RunReport &report)
{
    std::vector<double> ttfts;
    const sim::SimTime stepStart = sim::fromSeconds(kStepStartSeconds);
    for (const auto &rec : report.stats.records) {
        if (rec.arrival >= stepStart)
            ttfts.push_back(sim::toSeconds(rec.ttft));
    }
    CHM_CHECK(!ttfts.empty(), "no post-step arrivals finished");
    std::sort(ttfts.begin(), ttfts.end());
    const std::size_t index = static_cast<std::size_t>(
        0.99 * static_cast<double>(ttfts.size() - 1));
    return ttfts[index];
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 31 — closed-loop control: measured demand + boot-aware "
        "horizon",
        "on a degraded mixed fleet, feeding measured rates into the "
        "capacity signals and stretching the forecast horizon to the "
        "next replica's boot time scales up early enough to cut the "
        "post-load-step p99 TTFT versus the nominal-rate, "
        "fixed-horizon baseline");

    auto tb = bench::makeTestbed(100);
    auto wl = tb.wl;
    wl.rps = kBaseRps;
    wl.durationSeconds = kTraceSeconds;
    wl.bursts.push_back(workload::Burst{kStepStartSeconds,
                                        kStepEndSeconds,
                                        kStepMultiplier});
    workload::TraceGenerator gen(wl, tb.pool.get());
    const auto trace = gen.generate();

    const ControlConfig controls[] = {
        {"static", 0.0, false},
        {"measured", 0.3, false},
        {"boot-aware", 0.0, true},
        {"closed", 0.3, true},
    };

    bench::BenchJson json("fig31_closed_loop");
    double staticP99 = 0.0;
    double closedP99 = 0.0;

    std::printf("%-12s %9s %9s %9s %9s %12s %14s\n", "control",
                "finished", "peak", "ups", "boots", "p99ttft(s)",
                "step_p99(s)");
    for (const auto &control : controls) {
        const auto spec = controlSpec(tb, control);
        core::Runner runner(spec, tb.pool.get());
        const auto report = runner.run(trace);
        const double stepP99 = postStepP99Ttft(report);
        if (control.name == std::string("static"))
            staticP99 = stepP99;
        if (control.name == std::string("closed"))
            closedP99 = stepP99;
        std::printf("%-12s %9lld %9zu %9lld %9lld %12.3f %14.3f\n",
                    control.name,
                    static_cast<long long>(report.stats.finished),
                    report.peakReplicas,
                    static_cast<long long>(report.scaleUps),
                    static_cast<long long>(report.bootEvents),
                    report.stats.ttft.p99(), stepP99);
        json.row()
            .field("control", control.name)
            .field("measured_rate_alpha", control.measuredRateAlpha)
            .field("boot_aware_horizon", control.bootAwareHorizon)
            .field("boot_ms", kBootMs)
            .field("rps", wl.rps)
            .field("step_multiplier", kStepMultiplier)
            .field("finished", report.stats.finished)
            .field("p50_ttft_s", report.stats.ttft.p50())
            .field("p99_ttft_s", report.stats.ttft.p99())
            .field("post_step_p99_ttft_s", stepP99)
            .field("peak_replicas",
                   static_cast<std::int64_t>(report.peakReplicas))
            .field("scale_ups", report.scaleUps)
            .field("boot_events", report.bootEvents)
            .field("total_boot_s", report.totalBootSeconds)
            .field("requests_delayed_by_boot",
                   report.requestsDelayedByBoot);
    }

    std::printf("\nclosed loop post-step p99 %.3f s vs static %.3f s "
                "(%.1f%% lower)\n",
                closedP99, staticP99,
                100.0 * (1.0 - closedP99 / staticP99));
    // The payoff gate: the closed loop must beat the open loop at the
    // post-step tail, or the control plane is dead weight.
    CHM_CHECK(closedP99 < staticP99,
              "closed-loop control (measured demand + boot-aware "
              "horizon) did not improve post-step p99 TTFT: closed "
                  << closedP99 << " s vs static " << staticP99 << " s");

    json.write("BENCH_closed_loop.json");
    return 0;
}
