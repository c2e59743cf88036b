/**
 * @file
 * Figure 15: P99 TTFT over elapsed time at 9 RPS for FIFO (S-LoRA),
 * S-LoRA+SJF, ChameleonNoCache, and full Chameleon.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"

using namespace chameleon;

int
main()
{
    bench::banner("Figure 15 — P99 TTFT over time at 9 RPS",
                  "S-LoRA and S-LoRA+SJF tail latencies grow over time "
                  "(queueing); the Chameleon scheduler keeps them flat, "
                  "the cache lowers them further");

    auto tb = bench::makeTestbed(100);
    const auto trace = tb.trace(9.0, 2000.0);

    const std::vector<std::pair<const char *, const char *>> systems{
        {"S-LoRA", "slora"},
        {"S-LoRA+SJF", "slora-sjf"},
        {"ChNoCache", "chameleon-nocache"},
        {"Chameleon", "chameleon"},
    };

    std::map<std::string, std::map<std::int64_t, double>> series;
    for (const auto &[name, kind] : systems) {
        const auto result = bench::run(tb, kind, trace);
        for (const auto &pt : bench::p99TtftOverTime(result.stats.records,
                                                     100 * sim::kSec))
            series[name][pt.time / (100 * sim::kSec)] = pt.value;
    }

    std::printf("%8s", "t(s)");
    for (const auto &[name, kind] : systems)
        std::printf(" %12s", name);
    std::printf("\n");
    for (std::int64_t bucket = 0; bucket <= 20; ++bucket) {
        std::printf("%8lld", static_cast<long long>(bucket * 100));
        for (const auto &[name, kind] : systems) {
            const auto &m = series[name];
            const auto it = m.find(bucket);
            if (it == m.end())
                std::printf(" %12s", "-");
            else
                std::printf(" %12.2f", it->second);
        }
        std::printf("\n");
    }
    std::printf("\n(values: P99 TTFT seconds of the requests whose first "
                "token falls in each 100 s window)\n");
    return 0;
}
