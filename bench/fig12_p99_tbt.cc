/**
 * @file
 * Figure 12: P99 time-between-tokens vs load for S-LoRA and Chameleon.
 */

#include <cstdio>

#include "bench_util.h"

using namespace chameleon;

int
main()
{
    bench::banner("Figure 12 — P99 TBT vs load",
                  "Chameleon's TBT stays at or below S-LoRA's; both stay "
                  "within the TBT SLO across loads");

    auto tb = bench::makeTestbed(100);
    const std::vector<double> loads{5, 6, 7, 8, 9, 10, 11, 12, 13};
    const auto p99Tbt = [](const core::RunReport &r) {
        return r.stats.tbt.p99();
    };
    const auto slora = bench::sweepLoads(tb, "slora", loads, p99Tbt);
    const auto cham = bench::sweepLoads(tb, "chameleon", loads, p99Tbt);
    std::printf("%8s %14s %14s\n", "rps", "S-LoRA(ms)", "Chameleon(ms)");
    for (std::size_t i = 0; i < loads.size(); ++i) {
        // The TBT tracker stores milliseconds.
        std::printf("%8.1f %14.1f %14.1f\n", loads[i], slora[i].second,
                    cham[i].second);
    }
    std::printf("\nnote: TBT here is per-iteration latency; the simulated "
                "testbed fuses prefill into iterations, so absolute values "
                "exceed the paper's GPU measurements\n");
    return 0;
}
