/**
 * @file
 * §4.4 data parallelism: a global dispatcher over N engine replicas,
 * each replica running its own local scheduler and adapter cache
 * (caches replicated, as the paper specifies for DP). Compares S-LoRA
 * and Chameleon replicas at proportional loads under join-shortest-
 * queue dispatch.
 */

#include <cstdio>
#include <utility>

#include "bench_util.h"

using namespace chameleon;

int
main()
{
    bench::banner("Ablation — data-parallel replicas (§4.4)",
                  "Chameleon's two-level scheduling (global dispatch + "
                  "local MLQ, replicated caches) scales with replica "
                  "count like the single-engine case");

    auto tb = bench::makeTestbed(100);
    std::printf("%9s %8s %-6s %12s %12s %9s\n", "replicas", "rps",
                "system", "p50ttft(s)", "p99ttft(s)", "hit%");
    for (int replicas : {1, 2, 4}) {
        const double rps = 8.5 * replicas;
        const auto trace = tb.trace(rps, 200.0);
        for (const auto &[label, system] :
             {std::pair{"SLoRA", "slora"}, std::pair{"Cham", "chameleon"}}) {
            auto spec = tb.spec(system);
            spec.cluster.replicas = replicas;
            const auto report = bench::run(tb, spec, trace);
            std::printf("%9d %8.1f %-6s %12.3f %12.3f %8.1f%%\n", replicas,
                        rps, label, report.stats.ttft.p50(),
                        report.stats.ttft.p99(), 100.0 * report.cacheHitRate);
        }
    }
    return 0;
}
