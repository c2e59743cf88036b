/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The Simulator owns the virtual clock, a calendar queue
 * (event_queue.h) of scheduled callbacks, and a few sorted arrival
 * streams. Events at the same timestamp fire in scheduling order
 * (stable FIFO tie-break via a sequence number) so runs are
 * deterministic. Callbacks are stored as sim::EventFn — a small-buffer
 * move-only callable — in block-allocated slots with stable addresses,
 * so scheduling the hot-path closures never touches the heap and never
 * relocates pending events.
 *
 * A trace's arrivals are known up front and sorted, so they do not go
 * through the queue: scheduleStream registers the whole sequence at
 * once and reserves the block of sequence numbers that scheduling each
 * arrival would have taken. Dispatch merges the stream heads with the
 * queue head by (time, seq), so the dispatch order is exactly that of
 * per-arrival scheduling, with no slot, queue key or closure held per
 * future arrival: kernel memory follows the events in flight.
 */

#ifndef CHAMELEON_SIMKIT_SIMULATOR_H
#define CHAMELEON_SIMKIT_SIMULATOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simkit/event_fn.h"
#include "simkit/event_queue.h"
#include "simkit/time.h"

namespace chameleon::sim {

/** Handle for cancelling a scheduled event. */
using EventId = std::uint64_t;

/**
 * Event-driven simulation engine.
 *
 * Components schedule closures at absolute or relative virtual times and
 * the kernel dispatches them in timestamp order. There is no threading:
 * everything runs on the caller's thread inside run().
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /** Schedule a callback at absolute time t (must be >= now). */
    EventId
    scheduleAt(SimTime t, EventFn fn)
    {
        return scheduleImpl(t, std::move(fn));
    }

    /** Schedule a callback delay microseconds from now. */
    EventId scheduleAfter(SimTime delay, EventFn fn);

    /** Cancel a pending event; returns false if already fired/cancelled. */
    bool cancel(EventId id);

    /**
     * Schedule `count` arrivals at once: arrival i fires fire(i) at
     * time timeOf(i). Dispatches exactly as `count` scheduleAt calls
     * made now in index order would, but holds no per-arrival state:
     * timeOf is read one arrival ahead and fire when the arrival is
     * due, so whatever they read must outlive the run. Times must be
     * nondecreasing in i and >= now. Arrivals cannot be cancelled.
     */
    void scheduleStream(std::size_t count,
                        std::function<SimTime(std::size_t)> timeOf,
                        std::function<void(std::size_t)> fire);

    /** Dispatch events until the queue and every stream empty. */
    void run();

    /**
     * Dispatch events with timestamps <= deadline; the clock ends at
     * max(now, deadline) even if the queue empties earlier.
     */
    void runUntil(SimTime deadline);

    /** Number of events dispatched so far. */
    std::uint64_t eventsDispatched() const { return dispatched_; }

    /** Pending (non-cancelled) event count, stream arrivals included. */
    std::size_t pendingEvents() const
    {
        return pendingLive_ + streamPending_;
    }

    /** Event slots ever allocated: the peak of events pending at once
     * in the queue (stream arrivals take none). */
    std::size_t eventSlots() const { return slotCount_; }

  private:
    /** A registered scheduleStream: arrival `next` is its head, due at
     * `time` with sequence number seq0 + next. */
    struct Stream
    {
        std::function<SimTime(std::size_t)> timeOf;
        std::function<void(std::size_t)> fire;
        std::size_t next = 0;
        std::size_t count = 0;
        std::uint64_t seq0 = 0;
        SimTime time = 0;

        std::uint64_t seq() const { return seq0 + next; }
    };

    /** Dispatch the (time, seq)-earliest queue event or stream arrival
     * if it is due by `deadline`; false when nothing is. The queue
     * head is settled once per call. */
    bool dispatchNext(SimTime deadline);

    /** Run (or, if cancelled, recycle) the event under a popped key. */
    void dispatchKey(const EventKey &key);

    /** Fire the head arrival of stream `s` and advance it. */
    void fireStream(Stream &s);

    /** Point head_ at the stream with the earliest head, if any. */
    void refreshHead();

    EventId scheduleImpl(SimTime t, EventFn &&fn);

    /**
     * A slot cycles Free -> Live (scheduled) -> Free (dispatched), or
     * Live -> Cancelled -> Free: a cancelled event's queue entry stays
     * behind and is skipped at dispatch time, and only that skip may
     * recycle the id — recycling at cancel would let a new event alias
     * the stale queue entry.
     */
    enum class SlotState : std::uint8_t { Free, Live, Cancelled };

    struct Slot
    {
        EventFn fn;
        SlotState state = SlotState::Free;
    };

    // Slots live in fixed blocks so growing never relocates pending
    // EventFns (a vector realloc would move every live closure).
    static constexpr int kSlotBlockBits = 12;
    static constexpr std::size_t kSlotBlock = std::size_t{1}
                                              << kSlotBlockBits;
    using SlotBlock = std::array<Slot, kSlotBlock>;

    /** Sentinel for lastFreed_: no id parked. */
    static constexpr EventId kNoSlot = ~EventId{0};

    Slot &
    slot(EventId id)
    {
        return blockTable_[id >> kSlotBlockBits]
                          [id & (kSlotBlock - 1)];
    }

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t pendingLive_ = 0;
    CalendarQueue queue_;
    std::vector<std::unique_ptr<SlotBlock>> slotBlocks_;
    /** Raw mirror of slotBlocks_, with blockTable_ caching its
     * data() (refreshed whenever a block is added), so slot() is
     * two loads with no smart-pointer or bounds-check hops. */
    std::vector<Slot *> blockPtrs_;
    Slot **blockTable_ = nullptr;
    std::size_t slotCount_ = 0;
    std::vector<EventId> freeSlots_;
    /** The id freed by the latest dispatch, parked in a register
     * slot: the dispatch -> schedule ping-pong of event chains
     * recycles it without touching the freeSlots_ vector. */
    EventId lastFreed_ = kNoSlot;
    /** Streams with arrivals left (boxed: a fire() may register a
     * stream while its own closure runs). */
    std::vector<std::unique_ptr<Stream>> streams_;
    /** The stream whose head arrival is earliest; null when none. */
    Stream *head_ = nullptr;
    /** Arrivals not yet fired, over all streams. */
    std::size_t streamPending_ = 0;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_SIMULATOR_H
