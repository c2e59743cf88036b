/**
 * @file
 * Quickstart: serve a synthetic multi-adapter workload with S-LoRA and
 * with Chameleon, and compare latency/throughput metrics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_quickstart [rps]
 */

#include <cstdio>
#include <cstdlib>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/slo.h"
#include "workload/trace_gen.h"

using namespace chameleon;

int
main(int argc, char **argv)
{
    const double rps = argc > 1 ? std::atof(argv[1]) : 9.0;

    // 1. Describe the deployment: Llama-7B on one A40 GPU with 100 LoRA
    //    adapters of ranks 8..128 (the paper's §5.1 configuration).
    model::AdapterPool pool(model::llama7B(), 100);

    // Hardware applied to every spec we run below.
    auto configure = [](core::SystemSpec &spec) {
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
    };

    // 2. Generate a Splitwise-like trace: Poisson arrivals, heavy-tailed
    //    lengths, power-law adapter popularity.
    auto wl = workload::splitwiseLike();
    wl.rps = rps;
    wl.durationSeconds = 180.0;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    // 3. The paper's SLO: 5x the mean run-alone latency.
    model::CostModel cost(model::llama7B(), model::a40());
    const auto slo = serving::computeSlo(trace, cost, &pool);
    std::printf("trace: %zu requests at %.1f RPS, TTFT SLO %.2f s\n",
                trace.size(), trace.meanRps(), sim::toSeconds(slo));

    // 4. Run both systems on the identical trace, selected by name
    //    from the system registry.
    std::printf("%-22s %9s %9s %9s %9s %8s %8s\n", "system", "p50TTFT",
                "p99TTFT", "p99TBT", "p99E2E", "hitRate", "done");
    for (const char *name : {"slora", "chameleon"}) {
        const auto result = core::runSystem(name, configure, &pool, trace);
        const auto &s = result.stats;
        std::printf("%-22s %8.3fs %8.3fs %7.1fms %8.3fs %7.1f%% %8lld\n",
                    name, s.ttft.p50(), s.ttft.p99(),
                    s.tbt.p99(), s.e2e.p99(), 100.0 * result.cacheHitRate,
                    static_cast<long long>(s.finished));
    }
    return 0;
}
