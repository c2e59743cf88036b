/**
 * @file
 * Sim-time span tracing to Chrome trace-event JSON (Perfetto).
 *
 * A TraceRecorder collects begin/end spans, complete (X) events,
 * instants, counter samples, and async spans in simulation time and
 * renders them as the Chrome trace-event format [1], which loads
 * directly in Perfetto (ui.perfetto.dev) or chrome://tracing. SimTime
 * is already microseconds — exactly the `ts` unit the format wants —
 * so no conversion happens anywhere.
 *
 * Process/thread mapping ("pid = replica, tid = component"):
 *   pid 0            the cluster control plane (dispatch, autoscaler)
 *   pid i+1          replica i
 *   tid (Lane)       a component lane inside one process: Engine,
 *                    Requests, Cache, Control
 * Metadata events name each process and lane so the UI shows
 * "replica0 [A100-48]" instead of raw numbers.
 *
 * Attachment IS the on/off switch: components hold a plain
 * `TraceRecorder *` that is null by default, and every emission site
 * is guarded by one pointer compare — with no recorder attached the
 * simulation executes the identical event sequence (the golden-trace
 * suite pins this). Events append in emission order, which is
 * deterministic for a fixed seed, so two same-seed runs serialise to
 * byte-identical JSON.
 *
 * [1] "Trace Event Format",
 *     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
 */

#ifndef CHAMELEON_OBS_TRACE_RECORDER_H
#define CHAMELEON_OBS_TRACE_RECORDER_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "simkit/json.h"
#include "simkit/time.h"

namespace chameleon::obs {

/** The cluster control plane records under this pid. */
constexpr int kClusterPid = 0;

/** Trace pid of replica `index` (engines are 1-based in the trace). */
constexpr int
pidForReplica(std::size_t index)
{
    return static_cast<int>(index) + 1;
}

/** Component lanes within one trace process (tid values). */
enum class Lane : int {
    Engine = 0,   ///< Iterations, squash/preempt, memory counters.
    Requests = 1, ///< Per-request async phase spans.
    Cache = 2,    ///< Adapter cache loads/evictions.
    Control = 3,  ///< Dispatch and autoscaling decisions.
};

/** One key/value annotation attached to a trace event. */
struct TraceArg
{
    enum class Kind { Int, Double, String };

    TraceArg(const char *key, std::int64_t value)
        : key(key), kind(Kind::Int), i(value)
    {
    }
    TraceArg(const char *key, int value)
        : TraceArg(key, static_cast<std::int64_t>(value))
    {
    }
    TraceArg(const char *key, std::size_t value)
        : TraceArg(key, static_cast<std::int64_t>(value))
    {
    }
    TraceArg(const char *key, double value)
        : key(key), kind(Kind::Double), d(value)
    {
    }
    TraceArg(const char *key, std::string value)
        : key(key), kind(Kind::String), s(std::move(value))
    {
    }

    std::string key;
    Kind kind;
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
};

/**
 * Append-only recorder of sim-time trace events. Not thread-safe (the
 * simulator is single-threaded); cheap enough to leave attached for a
 * whole run. All timestamps are explicit so retrospective emission
 * (e.g. a request's phase spans written at finish time) is natural.
 */
class TraceRecorder
{
  public:
    using Args = std::initializer_list<TraceArg>;

    /** Name a trace process (emitted as an M metadata event). */
    void processName(int pid, const std::string &name);
    /** Name one lane of a process. */
    void threadName(int pid, Lane lane, const std::string &name);

    /** Synchronous span: begin() must nest properly with end(). */
    void begin(int pid, Lane lane, const char *name, sim::SimTime ts,
               Args args = {});
    void end(int pid, Lane lane, sim::SimTime ts);

    /** Complete event: a span whose duration is known at emission. */
    void complete(int pid, Lane lane, const char *name, sim::SimTime ts,
                  sim::SimTime dur, Args args = {});

    /** Zero-duration marker. */
    void instant(int pid, Lane lane, const char *name, sim::SimTime ts,
                 Args args = {});

    /** Counter sample: each arg becomes one series on the track. */
    void counter(int pid, const char *name, sim::SimTime ts, Args values);

    /** Async span, matched by (category, id) across emissions. */
    void asyncBegin(int pid, const char *category, std::int64_t id,
                    const char *name, sim::SimTime ts, Args args = {});
    void asyncEnd(int pid, const char *category, std::int64_t id,
                  const char *name, sim::SimTime ts);

    /** Recorded events so far (metadata excluded). */
    std::size_t size() const { return events_.size(); }

    /**
     * The trace as a JSON document: {"traceEvents": [...]} with the
     * metadata events first. Deterministic: same events in the same
     * order render byte-identically (obs_test pins this).
     */
    sim::JsonValue toJsonValue() const;
    std::string toJson() const;

  private:
    struct Event
    {
        char phase = 'i';
        int pid = 0;
        int tid = 0;
        std::string name;
        std::string category;
        bool hasId = false;
        std::int64_t id = 0;
        sim::SimTime ts = 0;
        sim::SimTime dur = -1; // < 0: no "dur" member
        std::vector<TraceArg> args;
    };

    void push(Event event) { events_.push_back(std::move(event)); }

    std::vector<Event> meta_;
    std::vector<Event> events_;
};

} // namespace chameleon::obs

#endif // CHAMELEON_OBS_TRACE_RECORDER_H
