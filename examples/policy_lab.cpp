/**
 * @file
 * Policy lab: explore scheduler x adapter-management x eviction
 * combinations on a common workload through the SystemSpec API — the
 * combinations the old closed system enum could not express.
 *
 * Three ways to describe a system are shown:
 *  1. registry names with the composition grammar ("chameleon+lru",
 *     "slora+cache"),
 *  2. fluent spec builders (withScheduler/withEviction/withPrefetch),
 *  3. registering a custom spec under its own name and running it by
 *     that name like any built-in.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "workload/trace_gen.h"

using namespace chameleon;

int
main()
{
    model::AdapterPool pool(model::llama7B(), 100);
    auto wl = workload::splitwiseLike();
    wl.rps = 9.0;
    wl.durationSeconds = 180.0;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    auto &registry = core::SystemRegistry::global();

    // A custom spec: SJF admission over the chameleon cache — not a
    // paper system, but one composed name, registered under its own.
    registry.add("sjf+cache", registry.lookup("chameleon-nosched+sjf"),
                 "custom: SJF over the chameleon cache");

    // Fluent composition of another custom point in the policy space.
    core::SystemSpec gdsfPrefetch =
        registry.lookup("chameleon")
            .withEviction(core::EvictionKind::Gdsf)
            .withPrefetch(/*topK=*/16)
            .named("gdsf+wide-prefetch");

    const std::vector<std::string> names{
        "slora",            // FIFO + discard-on-idle (registry preset)
        "slora+cache",      // FIFO + chameleon cache (composed)
        "sjf+cache",        // custom registered above
        "chameleon+lru",    // MLQ + cache, LRU eviction (composed)
        "chameleon+gdsf",   // MLQ + cache, GDSF eviction (composed)
        "chameleon",        // the full paper system
    };

    std::printf("workload: %zu requests at %.1f RPS\n\n", trace.size(),
                trace.meanRps());
    std::printf("%-24s %9s %9s %9s %9s\n", "system", "p50TTFT",
                "p99TTFT", "p99E2E", "hit%");
    auto report = [&](const core::SystemSpec &spec) {
        const auto result = core::runSpec(spec, &pool, trace);
        std::printf("%-24s %8.3fs %8.3fs %8.2fs %8.1f%%\n",
                    spec.name.c_str(), result.stats.ttft.p50(),
                    result.stats.ttft.p99(), result.stats.e2e.p99(),
                    100.0 * result.cacheHitRate);
    };
    for (const auto &name : names) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        report(spec);
    }
    gdsfPrefetch.engine.model = model::llama7B();
    gdsfPrefetch.engine.gpu = model::a40();
    report(gdsfPrefetch);
    return 0;
}
