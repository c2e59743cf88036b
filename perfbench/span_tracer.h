/**
 * @file
 * Span stack for the traced run.
 *
 * The benchmark's decorators open a span around every call they
 * forward into a layer. Spans nest: a span's self time is its duration
 * minus the time its child spans cover, so a cache call made from
 * inside a scheduler call is charged to the cache, not the scheduler.
 * Per-layer totals (calls, self and total nanoseconds) are aggregated
 * online. Raw spans are kept only while sampling is switched on (the
 * traced harness switches it on for a deterministic subset of
 * simulated-second slices) and are written out once, at the end.
 */

#ifndef PERFBENCH_SPAN_TRACER_H
#define PERFBENCH_SPAN_TRACER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Layer boundaries the decorators time. */
enum class Layer : int {
    SimSlice,        ///< Simulator::runUntil over one simulated second.
    Route,           ///< Router::route.
    DirectoryRead,   ///< ClusterView::residentReplicas (fabric directory).
    MlqSelect,       ///< Scheduler::selectAdmissions.
    MlqEnqueue,      ///< Scheduler::enqueue / requeueFront.
    MlqSnapshot,     ///< Scheduler::waitingSnapshot.
    MlqHooks,        ///< Scheduler::onRequestFinished / onIterationEnd.
    Reserve,         ///< AdmissionContext::tryReserve.
    Context,         ///< The other AdmissionContext closures.
    CacheQueued,     ///< AdapterManager::onRequestQueued.
    CacheDequeued,   ///< AdapterManager::onRequestDequeued.
    CacheCycle,      ///< AdapterManager::onSchedulingCycle.
    CacheAcquire,    ///< AdapterManager::acquire.
    CacheRelease,    ///< AdapterManager::release.
    CacheCanMakeResident, ///< AdapterManager::canMakeResident.
    CacheTryFreeMemory,   ///< AdapterManager::tryFreeMemory.
    CacheIsResident, ///< AdapterManager::isResident.
    CachePeerAdmit,  ///< AdapterManager::peerAdmit.
    CacheCachedBytes,///< AdapterManager::cachedBytes.
    Predict,         ///< OutputPredictor::predict / observe.
    DirectoryWrite,  ///< ResidencyEvents callbacks (fabric directory).
    Count
};

/** Stable lower-case name of a layer (span names in the output). */
const char *layerName(Layer layer);

class SpanTracer
{
  public:
    struct Totals
    {
        std::int64_t calls = 0;
        std::int64_t selfNs = 0;
        std::int64_t totalNs = 0;
    };

    /** Open a span; `request` is the request id, or -1. */
    void begin(Layer layer, std::int64_t request = -1);
    /** Close the innermost span; returns its duration in ns. */
    std::int64_t end();

    const Totals &totals(Layer layer) const
    {
        return totals_[static_cast<int>(layer)];
    }

    /** Keep raw spans opened from now on (until switched off). */
    void setSampling(bool on) { sampling_ = on; }
    std::size_t sampledSpans() const { return spans_.size(); }

    /** Write the sampled spans as a JSON array; false on I/O error. */
    bool writeSpans(const std::string &path) const;

  private:
    static std::int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    struct Frame
    {
        Layer layer;
        std::int64_t start;
        std::int64_t childNs;
        std::int32_t span; // index into spans_, or -1 when not sampled
    };

    struct Span
    {
        Layer layer;
        std::int64_t start;
        std::int64_t end;
        std::int32_t parent;
        std::int64_t request;
    };

    /** Raw spans kept at most (bounds the sample's memory). */
    static constexpr std::size_t kMaxSpans = 1u << 18;

    std::vector<Frame> stack_;
    std::array<Totals, static_cast<int>(Layer::Count)> totals_{};
    std::vector<Span> spans_;
    bool sampling_ = false;
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanTracer &tracer, Layer layer, std::int64_t request = -1)
        : tracer_(tracer)
    {
        tracer_.begin(layer, request);
    }
    ~Scope() { tracer_.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanTracer &tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACER_H
