/**
 * @file
 * Figure 13: P50 (median) TTFT vs load for S-LoRA and Chameleon.
 */

#include <cstdio>

#include "bench_util.h"

using namespace chameleon;

int
main()
{
    bench::banner("Figure 13 — P50 TTFT vs load",
                  "median TTFT reductions of 13.9% / 20.9% / 48.1% at "
                  "low / medium / high load");

    auto tb = bench::makeTestbed(100);
    const std::vector<double> loads{5, 6, 7, 8, 9, 10, 11, 12, 13};
    const auto p50Ttft = [](const core::RunReport &r) {
        return r.stats.ttft.p50();
    };
    const auto slora = bench::sweepLoads(tb, "slora", loads, p50Ttft);
    const auto cham = bench::sweepLoads(tb, "chameleon", loads, p50Ttft);
    std::printf("%8s %13s %13s %12s\n", "rps", "S-LoRA(s)", "Chameleon(s)",
                "reduction");
    for (std::size_t i = 0; i < loads.size(); ++i) {
        std::printf("%8.1f %13.3f %13.3f %11.1f%%\n", loads[i],
                    slora[i].second, cham[i].second,
                    100.0 * (1.0 - cham[i].second / slora[i].second));
    }
    return 0;
}
