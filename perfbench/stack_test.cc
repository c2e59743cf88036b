/**
 * @file
 * The benchmark's own test: on a short trace of each workload's spec,
 * the decorated stack must build the same program as core::Runner (equal
 * event hashes) and every decorator that should fire on that workload
 * must record calls. A forwarding bug in a decorator would otherwise skew
 * a per-layer number silently, or change the program being measured.
 *
 * Run: perfbench_test (exit 0 = pass), or `python3 perfbench/run.py
 * --self-test`.
 */

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "traced_stack.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &workload, const std::string &what)
{
    std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", workload.c_str(),
                what.c_str());
    if (!ok)
        ++failures;
}

/** Layers every workload exercises. */
const Layer kAlways[] = {
    Layer::SimSlice,    Layer::MlqSelect,
    Layer::MlqEnqueue,  Layer::MlqSnapshot,  Layer::MlqHooks,
    Layer::Reserve,     Layer::CacheQueued,  Layer::CacheDequeued,
    Layer::CacheCycle,  Layer::CacheAcquire, Layer::CacheRelease,
    Layer::CacheCachedBytes, Layer::Predict,
};

} // namespace

int
main()
{
    constexpr std::uint64_t kSeed = 3;
    for (WorkloadSpec workload : workloads()) {
        // A short trace keeps the test quick; the shape (fleet, router,
        // autoscaler, fabric, step) is the workload's own.
        workload.traceSeconds = 120.0;
        Setup s = setUp(workload, kSeed);
        const auto report = s.runner->run(s.trace);
        s.runner.reset();
        const TracedRun run =
            runTraced(systemSpec(workload), *s.pool, s.trace);
        const std::string &name = workload.name;
        const auto requests = static_cast<std::int64_t>(s.trace.size());

        expect(requests > 0, name, "trace is not empty");
        expect(report.stats.finished == requests, name,
               "Runner finishes every request");
        expect(run.finished == requests, name,
               "traced stack finishes every request");
        char hashes[96];
        std::snprintf(hashes, sizeof(hashes),
                      "hash 0x%016" PRIx64 " == 0x%016" PRIx64,
                      run.eventHash, report.eventHash);
        expect(run.eventHash == report.eventHash, name, hashes);

        std::vector<Layer> fire(std::begin(kAlways), std::end(kAlways));
        if (workload.replicas == 1) {
            // Past its knee the MLQ scheduler frees memory and queries
            // the engine's estimates.
            fire.push_back(Layer::CacheTryFreeMemory);
            fire.push_back(Layer::Context);
        }
        if (workload.migration != chm::fabric::MigrationPolicy::Off) {
            fire.push_back(Layer::DirectoryWrite);
            fire.push_back(Layer::DirectoryRead);
        } else {
            expect(run.calls[static_cast<int>(Layer::DirectoryWrite)] == 0,
                   name, "no directory without a fabric");
        }
        for (const Layer layer : fire) {
            const auto calls = run.calls[static_cast<int>(layer)];
            expect(calls > 0, name,
                   std::string(layerName(layer)) + " fired (" +
                       std::to_string(calls) + " calls)");
        }
        // A fixed one-replica cluster submits straight to its engine;
        // every other fleet routes each request exactly once.
        const bool routed = workload.replicas > 1 || workload.maxReplicas > 0;
        expect(run.calls[static_cast<int>(Layer::Route)] ==
                   (routed ? requests : 0),
               name, routed ? "one route call per request"
                            : "no routing on a fixed single replica");
        expect(run.calls[static_cast<int>(Layer::MlqEnqueue)] >= requests,
               name, "every request enqueued");
    }
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
}
