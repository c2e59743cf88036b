#include "workloads.h"

#include <algorithm>
#include <chrono>

#include "model/gpu_spec.h"
#include "model/llm.h"

namespace perfbench {

namespace {

std::vector<WorkloadSpec>
makeWorkloads()
{
    std::vector<WorkloadSpec> out;

    // One A40 past its knee: the adapter cache and the MLQ scheduler
    // carry the run, the router is never called. 10 RPS rather than
    // 12: at 12 the backlog's random walk moved sim_req_per_s fourfold
    // between seeds. The cost follows the memory-pressure episodes the
    // trace's bursts cause; their count varied by ±30% between seeds
    // over one simulated hour and by ±10% over four.
    WorkloadSpec saturated;
    saturated.name = "saturated-1gpu-1k";
    saturated.replicas = 1;
    saturated.adapters = 1000;
    saturated.rps = 10.0;
    saturated.traceSeconds = 14400.0;
    out.push_back(saturated);

    // 64 JSQ replicas under capacity, working set in every cache:
    // routing, engine iterations, KV growth and report building.
    WorkloadSpec fleet;
    fleet.name = "fleet64-jsq";
    fleet.replicas = 64;
    fleet.adapters = 100;
    fleet.rps = 500.0;
    fleet.traceSeconds = 300.0;
    out.push_back(fleet);

    // A 3x step on an autoscaled affinity-dir fleet with peer
    // migration: autoscaler, boots, drains, directory reads and writes.
    WorkloadSpec autoscale;
    autoscale.name = "autoscale-step-fabric";
    autoscale.replicas = 8;
    autoscale.router = chm::routing::RouterPolicy::AdapterAffinityDirectory;
    autoscale.adapters = 1000;
    autoscale.rps = 60.0;
    autoscale.traceSeconds = 300.0;
    autoscale.stepMultiplier = 3.0;
    autoscale.maxReplicas = 64;
    autoscale.bootMs = 8000.0;
    autoscale.replicaServiceRps = 9.0;
    autoscale.migration = chm::fabric::MigrationPolicy::All;
    out.push_back(autoscale);

    return out;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = makeWorkloads();
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

chm::core::SystemSpec
systemSpec(const WorkloadSpec &workload)
{
    chm::core::SystemSpec spec = chm::core::presets::chameleon();
    spec.engine.model = chm::model::llama7B();
    spec.engine.gpu = chm::model::a40();
    spec.cluster.replicas = workload.replicas;
    spec.cluster.router = workload.router;
    if (workload.maxReplicas > 0) {
        spec.cluster.autoscale = true;
        auto &as = spec.cluster.autoscaler;
        as.minReplicas = static_cast<std::size_t>(workload.replicas);
        as.maxReplicas = workload.maxReplicas;
        as.bootMs = workload.bootMs;
        as.replicaServiceRps = workload.replicaServiceRps;
    }
    spec.fabric.migration = workload.migration;
    return spec;
}

chm::workload::TraceGenConfig
traceConfig(const WorkloadSpec &workload, std::uint64_t seed)
{
    chm::workload::TraceGenConfig cfg = chm::workload::splitwiseLike();
    cfg.numAdapters = workload.adapters;
    cfg.rps = workload.rps;
    cfg.durationSeconds = workload.traceSeconds;
    cfg.seed = seed;
    if (workload.stepMultiplier != 1.0) {
        cfg.bursts.push_back(chm::workload::Burst{
            0.3 * workload.traceSeconds, 0.7 * workload.traceSeconds,
            workload.stepMultiplier});
    }
    return cfg;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Setup
setUp(const WorkloadSpec &workload, std::uint64_t seed)
{
    Setup s;
    const auto spec = systemSpec(workload);

    double t0 = wallSeconds();
    s.pool = std::make_unique<chm::model::AdapterPool>(spec.engine.model,
                                                       workload.adapters);
    double t1 = wallSeconds();
    s.poolSeconds = t1 - t0;

    chm::workload::TraceGenerator gen(traceConfig(workload, seed),
                                      s.pool.get());
    s.trace = gen.generate();
    t0 = wallSeconds();
    s.generateSeconds = t0 - t1;

    s.runner = std::make_unique<chm::core::Runner>(spec, s.pool.get());
    s.buildSeconds = wallSeconds() - t0;
    return s;
}

} // namespace perfbench
