/**
 * @file
 * Cluster routing: serve one skewed multi-adapter trace with a 4-replica
 * Chameleon cluster under each dispatch policy, then ride out a bursty
 * trace with the predictor-driven autoscaler.
 *
 * Demonstrates the cluster-level effects the routing subsystem adds
 * on top of the paper's §4.4 data parallelism:
 *  - adapter-affinity dispatch partitions the replicated adapter caches
 *    (higher hit rate, less adapter PCIe traffic than round-robin);
 *  - autoscaling absorbs bursts with extra replicas instead of queueing;
 *  - heterogeneous fleets: on a mixed A100/A40 deployment,
 *    capacity-aware routing places work where the hardware can absorb
 *    it (per-replica finished counts track the service-rate ratio).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_cluster_routing [replicas]
 */

#include <cstdio>
#include <cstdlib>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "routing/router.h"
#include "workload/trace_gen.h"

using namespace chameleon;

int
main(int argc, char **argv)
{
    const int replicas = argc > 1 ? std::atoi(argv[1]) : 4;

    model::AdapterPool pool(model::llama7B(), 200);
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = replicas;

    // A skewed (power-law) adapter-popularity trace sized so each
    // replica sees the paper's medium load.
    auto wl = workload::splitwiseLike();
    wl.numAdapters = 200;
    wl.rps = 8.5 * replicas;
    wl.durationSeconds = 150.0;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();
    std::printf("trace: %zu requests at %.1f RPS over %d replicas\n\n",
                trace.size(), trace.meanRps(), replicas);

    // 1. Same trace, every dispatch policy.
    std::printf("%-15s %9s %9s %10s %8s\n", "router", "p50TTFT",
                "p99TTFT", "fetches", "hitRate");
    for (const auto policy : {routing::RouterPolicy::RoundRobin,
                              routing::RouterPolicy::JoinShortestQueue,
                              routing::RouterPolicy::PowerOfTwoChoices,
                              routing::RouterPolicy::AdapterAffinity,
                              routing::RouterPolicy::AdapterAffinityDirectory}) {
        spec.cluster.router = policy;
        const auto result = core::runSpec(spec, &pool, trace);
        std::printf("%-15s %8.3fs %8.3fs %10lld %7.1f%%\n",
                    routing::routerPolicyName(policy),
                    result.stats.ttft.p50(), result.stats.ttft.p99(),
                    static_cast<long long>(result.pcieTransfers),
                    100.0 * result.cacheHitRate);
    }

    // 2. Bursty arrivals (§3.1) against the autoscaler: start at two
    //    replicas and let the forecast grow the cluster into bursts.
    wl.burstMultiplier = 4.0;
    wl.burstPeriodSeconds = 60.0;
    wl.burstDurationSeconds = 15.0;
    wl.rps = 8.5 * 2;
    workload::TraceGenerator burstGen(wl, &pool);
    const auto burstTrace = burstGen.generate();

    spec.cluster.router = routing::RouterPolicy::AdapterAffinity;
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 2;
    spec.cluster.autoscaler.maxReplicas =
        static_cast<std::size_t>(replicas * 2);
    spec.cluster.autoscaler.replicaServiceRps = 8.5;
    const auto scaled = core::runSpec(spec, &pool, burstTrace);
    std::printf("\nautoscaled burst run: p99 TTFT %.3f s, %zu peak "
                "replicas (%lld up / %lld down), per-replica finished:",
                scaled.stats.ttft.p99(), scaled.peakReplicas,
                static_cast<long long>(scaled.scaleUps),
                static_cast<long long>(scaled.scaleDowns));
    for (const auto finished : scaled.perReplicaFinished)
        std::printf(" %lld", static_cast<long long>(finished));
    std::printf("\n");

    // 3. A heterogeneous fleet: half the replicas upgraded to A100s.
    //    Routing weights queue depths by each replica's nominal
    //    service rate, so the A100s absorb the larger share.
    std::vector<model::GpuSpec> gpus;
    if (!model::tryFleetByName("a100-48x2+a40x2", &gpus)) {
        std::fprintf(stderr, "bad fleet preset; expected %s\n",
                     model::fleetGrammarHelp().c_str());
        return 1;
    }
    auto hetero = core::SystemRegistry::global().lookup("chameleon");
    hetero.engine.model = model::llama7B();
    hetero.engine.gpu = model::a40();
    hetero.withFleet(gpus, routing::RouterPolicy::PowerOfTwoChoices);
    const auto mixed = core::runSpec(hetero, &pool, trace);
    std::printf("\nmixed a100-48x2+a40x2 fleet (p2c): p99 TTFT %.3f s\n",
                mixed.stats.ttft.p99());
    for (std::size_t i = 0; i < mixed.perReplicaFinished.size(); ++i) {
        std::printf("  replica %zu: %lld finished at %.2f req/s "
                    "nominal\n",
                    i,
                    static_cast<long long>(mixed.perReplicaFinished[i]),
                    mixed.perReplicaServiceRate[i]);
    }
    return 0;
}
