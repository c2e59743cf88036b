/**
 * @file
 * Figure 19: sensitivity to the output-length predictor's accuracy
 * (100 / 80 / 60%) for the OutputOnly WRS variant vs full Chameleon,
 * with a load burst injected around t=300 s.
 */

#include <cstdio>

#include "bench_util.h"

using namespace chameleon;

int
main()
{
    bench::banner("Figure 19 — predictor accuracy sensitivity",
                  "robust at 80-100%; with 60% accuracy the burst at "
                  "~300 s hurts, and OutputOnly is more sensitive than "
                  "the full WRS");

    auto tb = bench::makeTestbed(100);
    tb.wl.burstMultiplier = 1.0; // isolate the single injected burst
    tb.wl.bursts = {{290.0, 315.0, 2.0}};
    const auto trace = tb.trace(9.0, 600.0);

    std::printf("%-12s %6s %12s %12s %16s\n", "wrs", "acc", "p99ttft(s)",
                "p50ttft(s)", "burst p99 (s)");
    for (const auto &[label, system] :
         std::vector<std::pair<const char *, const char *>>{
             {"OutputOnly", "chameleon-output-only"},
             {"Chameleon", "chameleon"}}) {
        for (double acc : {1.0, 0.8, 0.6}) {
            auto spec = tb.spec(system);
            spec.predictor.accuracy = acc;
            const auto result = bench::run(tb, spec, trace);
            // Peak windowed P99 within the burst region (250..400 s).
            double burst_p99 = 0.0;
            for (const auto &pt :
                 bench::p99TtftOverTime(result.stats.records)) {
                const double t = sim::toSeconds(pt.time);
                if (t >= 250.0 && t <= 400.0)
                    burst_p99 = std::max(burst_p99, pt.value);
            }
            std::printf("%-12s %5.0f%% %12.2f %12.2f %16.2f\n", label,
                        100.0 * acc, result.stats.ttft.p99(),
                        result.stats.ttft.p50(), burst_p99);
        }
    }
    return 0;
}
