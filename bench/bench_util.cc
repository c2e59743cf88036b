#include "bench_util.h"

#include <cstdio>
#include <map>

namespace chameleon::bench {

workload::Trace
Testbed::trace(double rps, double seconds, std::uint64_t seed) const
{
    workload::TraceGenConfig cfg = wl;
    cfg.rps = rps;
    cfg.durationSeconds = seconds;
    cfg.seed = seed;
    workload::TraceGenerator gen(cfg, pool.get());
    return gen.generate();
}

core::SystemSpec
Testbed::spec(const std::string &system) const
{
    core::SystemSpec spec = core::SystemRegistry::global().lookup(system);
    spec.engine = engine;
    return spec;
}

model::CostModel
Testbed::costModel() const
{
    return model::CostModel(engine.model, engine.gpu, engine.tpDegree,
                            engine.cost);
}

double
Testbed::sloSeconds(const workload::Trace &t) const
{
    const auto cost = costModel();
    return sim::toSeconds(serving::computeSlo(t, cost, pool.get()));
}

Testbed
makeTestbed(int numAdapters)
{
    Testbed tb;
    tb.engine.model = model::llama7B();
    tb.engine.gpu = model::a40();
    tb.wl = workload::splitwiseLike();
    tb.wl.numAdapters = numAdapters;
    if (numAdapters > 0)
        tb.pool = std::make_unique<model::AdapterPool>(tb.engine.model,
                                                       numAdapters);
    return tb;
}

Testbed
makeA100Testbed(const model::ModelSpec &model, int memGiB, int numAdapters,
                int tpDegree)
{
    Testbed tb;
    tb.engine.model = model;
    tb.engine.gpu = model::a100(memGiB);
    tb.engine.tpDegree = tpDegree;
    tb.wl = workload::splitwiseLike();
    tb.wl.numAdapters = numAdapters;
    if (numAdapters > 0)
        tb.pool = std::make_unique<model::AdapterPool>(model, numAdapters);
    return tb;
}

core::RunReport
run(const Testbed &tb, const core::SystemSpec &spec,
    const workload::Trace &trace)
{
    return core::runSpec(spec, tb.pool.get(), trace);
}

core::RunReport
run(const Testbed &tb, const std::string &system,
    const workload::Trace &trace)
{
    return run(tb, tb.spec(system), trace);
}

void
banner(const std::string &figure, const std::string &paperClaim)
{
    std::printf("================================================================\n");
    std::printf("%s\n", figure.c_str());
    std::printf("paper: %s\n", paperClaim.c_str());
    std::printf("================================================================\n");
}

std::vector<std::pair<double, double>>
sweepLoads(const Testbed &tb, const std::string &system,
           const std::vector<double> &rpsList,
           double (*metric)(const core::RunReport &), double traceSeconds)
{
    std::vector<std::pair<double, double>> out;
    const auto spec = tb.spec(system);
    for (double rps : rpsList) {
        const auto trace = tb.trace(rps, traceSeconds);
        out.emplace_back(rps, metric(run(tb, spec, trace)));
    }
    return out;
}

std::vector<sim::TimePoint>
p99TtftOverTime(const std::vector<serving::RequestRecord> &records,
                sim::SimTime window)
{
    std::map<std::int64_t, sim::PercentileTracker> windows;
    for (const auto &r : records)
        windows[(r.arrival + r.ttft) / window].add(sim::toSeconds(r.ttft));
    std::vector<sim::TimePoint> out;
    out.reserve(windows.size());
    for (const auto &[index, ttft] : windows)
        out.push_back({index * window, ttft.p99()});
    return out;
}

} // namespace chameleon::bench
