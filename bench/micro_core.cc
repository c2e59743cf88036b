/**
 * @file
 * Micro-benchmarks (google-benchmark) for the core data structures:
 * event kernel throughput, eviction scoring, 1-D K-means, the sample
 * sort behind every percentile, quota assignment, WRS computation, the
 * paged KV allocator, and the residency directory's top-k heat query.
 *
 * Besides the usual console table, the binary writes
 * BENCH_micro_core.json (sweep::BenchJson rows: name, iterations,
 * time_per_op_ns, items_per_second) so CI can archive the core perf
 * trajectory alongside the figure benches.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "sweep/bench_json.h"

#include "chameleon/eviction.h"
#include "chameleon/kmeans.h"
#include "chameleon/mlq_scheduler.h"
#include "chameleon/quota.h"
#include "chameleon/wrs.h"
#include "fabric/residency_directory.h"
#include "gpu/gpu_memory.h"
#include "gpu/kv_cache.h"
#include "model/llm.h"
#include "simkit/rng.h"
#include "simkit/simulator.h"
#include "simkit/stats.h"

using namespace chameleon;

namespace {

void
BM_SimulatorScheduleDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator simulator;
        for (int i = 0; i < 1024; ++i)
            simulator.scheduleAt(i, [] {});
        simulator.run();
        benchmark::DoNotOptimize(simulator.eventsDispatched());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorScheduleDispatch);

void
BM_EvictionPickVictim(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<core::EvictionCandidate> candidates(n);
    sim::Rng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
        candidates[i].id = static_cast<model::AdapterId>(i);
        candidates[i].bytes = static_cast<std::int64_t>(
            (1 + rng.nextBelow(16)) << 20);
        candidates[i].lastUsed = static_cast<sim::SimTime>(rng.nextBelow(
            1000000));
        candidates[i].frequency = rng.nextDouble() * 50.0;
    }
    core::ChameleonEviction policy;
    for (auto _ : state)
        benchmark::DoNotOptimize(policy.pickVictim(candidates, 1000000));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvictionPickVictim)->Arg(16)->Arg(128)->Arg(1024);

void
BM_KMeans1d(benchmark::State &state)
{
    sim::Rng rng(2);
    std::vector<double> data;
    for (int i = 0; i < state.range(0); ++i)
        data.push_back(rng.nextDouble());
    for (auto _ : state)
        benchmark::DoNotOptimize(core::chooseClusters(
            data, core::kMlqMaxQueues, core::kMlqElbowThreshold));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeans1d)->Arg(512)->Arg(4096);

/** Latency-like samples (a few decades); each iteration sorts a fresh
 * copy, so the copy is part of the measured time. 2048 is about a
 * k-means window, 151k a large run's per-request tracker. */
void
BM_SortDoubles(benchmark::State &state)
{
    sim::Rng rng(4);
    std::vector<double> data;
    for (int i = 0; i < state.range(0); ++i)
        data.push_back(std::exp(8.0 * rng.nextDouble() - 4.0));
    for (auto _ : state) {
        std::vector<double> copy = data;
        sim::sortDoubles(copy);
        benchmark::DoNotOptimize(copy.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortDoubles)->Arg(2048)->Arg(151000);

/** The fabric's migration query: the top 4 of 1000 adapters by heat. */
void
BM_DirectoryHottest(benchmark::State &state)
{
    const int adapters = static_cast<int>(state.range(0));
    fabric::ResidencyDirectory dir;
    sim::Rng rng(5);
    for (int id = 0; id < adapters; ++id) {
        dir.onLoadStart(0, id);
        dir.onLoadComplete(0, id);
        for (auto uses = rng.nextBelow(8); uses > 0; --uses) {
            dir.onAcquire(0, id,
                          static_cast<sim::SimTime>(rng.nextBelow(1000)));
            dir.onRelease(0, id);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(dir.hottest(4));
    state.SetItemsProcessed(state.iterations() * adapters);
}
BENCHMARK(BM_DirectoryHottest)->Arg(1000);

void
BM_QuotaAssignment(benchmark::State &state)
{
    std::vector<core::QueueLoadStats> stats(4);
    for (std::size_t i = 0; i < stats.size(); ++i) {
        stats[i].maxTokens = 100.0 * static_cast<double>(i + 1);
        stats[i].meanServiceSeconds = 0.5 * static_cast<double>(i + 1);
        stats[i].arrivalRate = 4.0 - static_cast<double>(i);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(core::assignQuotas(stats, 5.0, 100000));
}
BENCHMARK(BM_QuotaAssignment);

void
BM_WrsCompute(benchmark::State &state)
{
    model::AdapterPool pool(model::llama7B(), 100);
    core::WrsCalculator wrs(&pool);
    sim::Rng rng(3);
    std::int64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            wrs.compute(8 + static_cast<std::int64_t>(rng.nextBelow(500)),
                        8 + static_cast<std::int64_t>(rng.nextBelow(500)),
                        pool.spec(static_cast<model::AdapterId>(
                                      i++ % 100)).bytes));
    }
}
BENCHMARK(BM_WrsCompute);

void
BM_KvCacheReserveRelease(benchmark::State &state)
{
    gpu::GpuMemory mem(48ll << 30, 0, 0);
    gpu::KvCache kv(mem, 512 * 1024, 16);
    std::vector<gpu::KvReservation> reservations(256);
    std::int64_t id = 0;
    for (auto _ : state) {
        kv.tryReserve(reservations[id % 256], 128 + id % 512);
        kv.release(reservations[(id + 128) % 256]);
        ++id;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvCacheReserveRelease);

/**
 * Console output as usual, plus one BenchJson row per iteration run
 * (aggregates and errored runs are skipped — rows track raw repetition
 * results, like the sweep documents do).
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonCaptureReporter(sweep::BenchJson *json) : json_(json) {}

    void ReportRuns(const std::vector<Run> &reports) override
    {
        benchmark::ConsoleReporter::ReportRuns(reports);
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            auto &row = json_->row();
            row.field("name", run.benchmark_name());
            row.field("iterations",
                      static_cast<std::int64_t>(run.iterations));
            const double perOp =
                run.iterations
                    ? run.real_accumulated_time /
                          static_cast<double>(run.iterations)
                    : 0.0;
            row.field("time_per_op_ns", perOp * 1e9);
            const auto items = run.counters.find("items_per_second");
            if (items != run.counters.end())
                row.field("items_per_second",
                          static_cast<double>(items->second));
        }
    }

  private:
    sweep::BenchJson *json_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    sweep::BenchJson json("micro_core");
    JsonCaptureReporter reporter(&json);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    json.write("BENCH_micro_core.json");
    return 0;
}
