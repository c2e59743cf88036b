/**
 * @file
 * Two-level bucketed calendar queue for the simulation kernel.
 *
 * The simulator's previous std::priority_queue paid O(log n) per
 * schedule and per pop with n = every pending event — including the
 * whole not-yet-arrived tail of a trace. This queue splits pending
 * events by horizon:
 *
 *   near future   a ring of kBucketCount buckets, each covering
 *                 kBucketWidth microseconds of virtual time. Events
 *                 land in their bucket with a push_back; only the
 *                 bucket under the cursor is sorted (lazily,
 *                 latest-first, when the cursor reaches it), so
 *                 scheduling into the near window is O(1), popping is
 *                 a pop_back, and the sort costs O(b log b) once per
 *                 bucket with b the *bucket* occupancy, not the queue
 *                 size.
 *   far future    events beyond the ring's window. Monotone pushes
 *                 append to a sorted deque in O(1); the rare
 *                 out-of-order far push goes to a small binary heap.
 *                 Far events migrate into the ring — once — as the
 *                 cursor window advances over them. Trace arrivals
 *                 skip the queue as the Simulator's arrival streams
 *                 (simulator.h); the deque keeps O(1) the callers
 *                 that schedule a sorted run of far events one at a
 *                 time, such as bench/sim_core_scale's 1M arrivals.
 *
 * Ordering is exactly the kernel's contract: globally by (time, seq)
 * with seq the schedule-order sequence number, i.e. a stable FIFO
 * tie-break at equal timestamps. Because (time, seq) is a strict total
 * order, sorted-bucket pops are deterministic regardless of internal
 * layout, so the dispatch stream is bit-identical to the priority_queue it
 * replaced (asserted by tests/event_queue_test.cc property tests and
 * the golden-trace pins).
 *
 * Cancellation stays in the Simulator (slot liveness checked at
 * dispatch); the queue only orders (time, seq, id) keys.
 */

#ifndef CHAMELEON_SIMKIT_EVENT_QUEUE_H
#define CHAMELEON_SIMKIT_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "simkit/time.h"

namespace chameleon::sim {

/** One scheduled-event key: dispatch orders by (time, seq). */
struct EventKey
{
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
};

/** Comparator: a fires after b (std:: heap algos' "less important"). */
struct EventAfter
{
    bool
    operator()(const EventKey &a, const EventKey &b) const
    {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
};

class CalendarQueue
{
  public:
    CalendarQueue();

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Insert a key; time must be >= the last popped key's time. */
    void push(const EventKey &key);

    /** The (time, seq)-minimal key; queue must be non-empty. Not
     * const: positions the cursor (amortised O(1)). */
    const EventKey &top();

    /** Remove the minimal key; queue must be non-empty. Right after
     * top() this reuses top()'s cursor settle. */
    void pop();

  private:
    // 2048 buckets x 1024 us: a ~2.1 s near window. Iteration-scale
    // events (micro/milliseconds ahead) stay O(1); events seconds to
    // hours out take the far path.
    static constexpr int kWidthBits = 10;
    static constexpr int kBucketBits = 11;
    static constexpr std::size_t kBucketCount = std::size_t{1}
                                                << kBucketBits;
    static constexpr std::uint64_t kBucketMask = kBucketCount - 1;

    std::uint64_t
    bucketOf(SimTime t) const
    {
        return static_cast<std::uint64_t>(t) >> kWidthBits;
    }

    /** Advance the cursor to the bucket holding the minimal key and
     * sort it latest-first; requires size_ > 0. */
    void settle();

    /** Pull far events whose bucket entered the cursor window. */
    void migrateFar();

    /** Recompute nextFarBucket_ from the far containers' heads. */
    void refreshNextFar();

    void pushNear(const EventKey &key, std::uint64_t bucket);

    std::vector<std::vector<EventKey>> buckets_;
    /** Absolute bucket number under the cursor. */
    std::uint64_t curBucket_ = 0;
    /** Is buckets_[curBucket_ & mask] currently sorted latest-first? */
    bool curSorted_ = false;
    /** Events stored in the ring. */
    std::size_t nearCount_ = 0;
    /** Far events pushed in nondecreasing (time, seq) order. */
    std::deque<EventKey> farSorted_;
    /** Far events that arrived out of order (rare). */
    std::vector<EventKey> farHeap_;
    /** Bucket of the earliest far event (UINT64_MAX when none), so
     * settle() decides "anything to migrate?" with one compare
     * instead of inspecting both far containers every pop. */
    std::uint64_t nextFarBucket_ = ~std::uint64_t{0};
    std::size_t size_ = 0;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_EVENT_QUEUE_H
