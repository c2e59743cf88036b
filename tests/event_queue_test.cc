/**
 * @file
 * Property tests for the calendar event queue against a
 * std::priority_queue reference model, EventFn small-buffer
 * semantics, and the Simulator's cancellation / id-recycling
 * contract on top of both.
 *
 * The queue's promise is exact: pops come out in (time, seq) order —
 * a stable FIFO tie-break at equal timestamps — no matter how pushes
 * straddle the near ring, the far overflow, bucket rollovers, or
 * cursor jumps. Every test here drives the calendar queue and the
 * old priority_queue comparator side by side and demands identical
 * streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "simkit/event_fn.h"
#include "simkit/event_queue.h"
#include "simkit/rng.h"
#include "simkit/simulator.h"
#include "simkit/time.h"

namespace sim = chameleon::sim;

namespace {

/** The pre-calendar-queue implementation, as a reference model. */
using ReferenceQueue =
    std::priority_queue<sim::EventKey, std::vector<sim::EventKey>,
                        sim::EventAfter>;

/**
 * Push the same keys into both queues, then drain both and require
 * identical (time, seq, id) streams.
 */
void
expectSameDrain(const std::vector<sim::EventKey> &keys)
{
    sim::CalendarQueue calendar;
    ReferenceQueue reference;
    for (const auto &key : keys) {
        calendar.push(key);
        reference.push(key);
    }
    ASSERT_EQ(calendar.size(), keys.size());
    while (!reference.empty()) {
        ASSERT_FALSE(calendar.empty());
        const sim::EventKey &got = calendar.top();
        const sim::EventKey &want = reference.top();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.seq, want.seq);
        ASSERT_EQ(got.id, want.id);
        calendar.pop();
        reference.pop();
    }
    EXPECT_TRUE(calendar.empty());
    EXPECT_EQ(calendar.size(), 0u);
}

} // namespace

// ------------------------------------------------- ordering properties

TEST(CalendarQueue, PopsInTimeOrderWithinTheNearWindow)
{
    // All within one ~2.1 s ring window, pushed shuffled.
    sim::Rng rng(11);
    std::vector<sim::EventKey> keys;
    for (std::uint64_t seq = 0; seq < 5000; ++seq) {
        keys.push_back({static_cast<sim::SimTime>(rng.nextBelow(
                            2 * sim::kSec)),
                        seq, seq});
    }
    expectSameDrain(keys);
}

TEST(CalendarQueue, FifoTieBreakAtEqualTimestamps)
{
    // Many events at the same instant must pop in schedule order.
    sim::CalendarQueue queue;
    for (std::uint64_t seq = 0; seq < 1000; ++seq)
        queue.push({7 * sim::kMsec, seq, 1000 - seq});
    for (std::uint64_t seq = 0; seq < 1000; ++seq) {
        ASSERT_EQ(queue.top().seq, seq);
        ASSERT_EQ(queue.top().id, 1000 - seq);
        queue.pop();
    }
    EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, BucketRolloverAcrossTheRingBoundary)
{
    // Times straddling several full ring windows (~2.1 s each), with
    // clusters exactly on bucket-width boundaries so rollover edges
    // are exercised, not just interiors.
    std::vector<sim::EventKey> keys;
    std::uint64_t seq = 0;
    for (sim::SimTime base = 0; base <= 10 * sim::kSec;
         base += 1 << 10) { // one bucket width
        keys.push_back({base, seq, seq});
        ++seq;
        keys.push_back({base + 1, seq, seq});
        ++seq;
    }
    // Shuffle deterministically so pushes are not already sorted.
    sim::Rng rng(5);
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[rng.nextBelow(i)]);
    expectSameDrain(keys);
}

TEST(CalendarQueue, MonotoneFarAppendsLikeATraceArrivalStream)
{
    // Trace arrivals: nondecreasing times, hours past the ring
    // window — the O(1) sorted-deque far path.
    std::vector<sim::EventKey> keys;
    sim::Rng rng(17);
    sim::SimTime t = 0;
    for (std::uint64_t seq = 0; seq < 4000; ++seq) {
        t += static_cast<sim::SimTime>(rng.nextBelow(3 * sim::kSec));
        keys.push_back({t, seq, seq});
    }
    expectSameDrain(keys);
}

TEST(CalendarQueue, OutOfOrderFarPushesTakeTheHeapPath)
{
    // Far-future pushes in descending time order: every push after
    // the first is out of order relative to the sorted deque's tail,
    // so they all land in the far heap — and must still interleave
    // correctly with monotone far events and near events.
    std::vector<sim::EventKey> keys;
    std::uint64_t seq = 0;
    for (sim::SimTime t = 100 * sim::kSec; t >= 10 * sim::kSec;
         t -= sim::kSec) {
        keys.push_back({t, seq, seq});
        ++seq;
    }
    for (sim::SimTime t = 9 * sim::kSec; t <= 101 * sim::kSec;
         t += 2 * sim::kSec) {
        keys.push_back({t, seq, seq});
        ++seq;
    }
    keys.push_back({5 * sim::kMsec, seq, seq}); // near, pops first
    expectSameDrain(keys);
}

TEST(CalendarQueue, CursorJumpsOverAnEmptyRing)
{
    // Two lone events an hour apart: after the first pops, the ring
    // is empty and the cursor must jump straight to the far event's
    // bucket instead of walking ~3.4M empty buckets.
    sim::CalendarQueue queue;
    queue.push({sim::kMsec, 0, 0});
    queue.push({3600 * sim::kSec, 1, 1});
    EXPECT_EQ(queue.top().seq, 0u);
    queue.pop();
    EXPECT_EQ(queue.top().seq, 1u);
    EXPECT_EQ(queue.top().time, 3600 * sim::kSec);
    queue.pop();
    EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, PushBehindAnAdvancedCursorStaysOrdered)
{
    // top() on a lone far event jumps the cursor to its bucket. A
    // later push at an earlier (still legal) time lands behind the
    // cursor and must clamp into the current bucket, not get lost.
    sim::CalendarQueue queue;
    queue.push({10 * sim::kSec, 0, 0});
    EXPECT_EQ(queue.top().time, 10 * sim::kSec);
    queue.push({5 * sim::kSec, 1, 1});
    EXPECT_EQ(queue.top().time, 5 * sim::kSec);
    queue.pop();
    EXPECT_EQ(queue.top().time, 10 * sim::kSec);
    queue.pop();
    EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, RandomInterleavingsMatchTheReferenceModel)
{
    // Mixed push/pop interleavings across near, monotone-far, and
    // out-of-order-far horizons, several seeds. Pushes respect the
    // kernel's contract: time >= the last popped time.
    for (std::uint64_t round = 0; round < 8; ++round) {
        sim::Rng rng(1000 + round);
        sim::CalendarQueue calendar;
        ReferenceQueue reference;
        sim::SimTime lastPopped = 0;
        std::uint64_t seq = 0;
        for (int op = 0; op < 20000; ++op) {
            const bool push =
                reference.empty() || rng.nextBelow(100) < 55;
            if (push) {
                sim::SimTime t = lastPopped;
                switch (rng.nextBelow(3)) {
                case 0: // near: within the ring window
                    t += static_cast<sim::SimTime>(
                        rng.nextBelow(2 * sim::kSec));
                    break;
                case 1: // far, loosely increasing
                    t += static_cast<sim::SimTime>(
                        3 * sim::kSec + rng.nextBelow(30 * sim::kSec));
                    break;
                default: // far, scattered (out-of-order arrivals)
                    t += static_cast<sim::SimTime>(
                        3 * sim::kSec + rng.nextBelow(600 * sim::kSec));
                    break;
                }
                const sim::EventKey key{t, seq, seq};
                ++seq;
                calendar.push(key);
                reference.push(key);
            } else {
                ASSERT_FALSE(calendar.empty());
                const sim::EventKey &got = calendar.top();
                const sim::EventKey &want = reference.top();
                ASSERT_EQ(got.time, want.time) << "round " << round;
                ASSERT_EQ(got.seq, want.seq) << "round " << round;
                lastPopped = want.time;
                calendar.pop();
                reference.pop();
            }
        }
        while (!reference.empty()) {
            ASSERT_EQ(calendar.top().seq, reference.top().seq);
            calendar.pop();
            reference.pop();
        }
        EXPECT_TRUE(calendar.empty());
    }
}

// --------------------------------------------------------------- EventFn

namespace {

/** Counts live instances to catch double-destroy / leak in EventFn. */
struct InstanceCounter
{
    static int live;
    int *hits;
    explicit InstanceCounter(int *h) : hits(h) { ++live; }
    InstanceCounter(const InstanceCounter &o) noexcept : hits(o.hits)
    {
        ++live;
    }
    InstanceCounter(InstanceCounter &&o) noexcept : hits(o.hits)
    {
        ++live;
    }
    ~InstanceCounter() { --live; }
    void operator()() const { ++*hits; }
};

int InstanceCounter::live = 0;

} // namespace

TEST(EventFn, SmallCapturesStayInline)
{
    int hits = 0;
    sim::EventFn fn([&hits] { ++hits; });
    EXPECT_TRUE(fn.inlined());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(EventFn, CapturesUpToTheBudgetStayInline)
{
    // A closure that fills the 64-byte budget exactly (56 bytes of
    // payload + one captured reference) must not touch the heap.
    struct
    {
        std::uint64_t words[7];
    } payload{};
    payload.words[6] = 42;
    std::uint64_t seen = 0;
    sim::EventFn fn([payload, &seen] { seen = payload.words[6]; });
    EXPECT_TRUE(fn.inlined());
    fn();
    EXPECT_EQ(seen, 42u);
}

TEST(EventFn, OversizedCapturesFallBackToTheHeap)
{
    struct
    {
        std::uint64_t words[9]; // 72 bytes > kInlineBytes
    } payload{};
    payload.words[8] = 7;
    std::uint64_t seen = 0;
    sim::EventFn fn([payload, &seen] { seen = payload.words[8]; });
    EXPECT_FALSE(fn.inlined());
    fn();
    EXPECT_EQ(seen, 7u);
}

TEST(EventFn, MoveTransfersTheCallableAndEmptiesTheSource)
{
    int hits = 0;
    sim::EventFn a([&hits] { ++hits; });
    sim::EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: moved-from is empty
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    sim::EventFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
    c = nullptr;
    EXPECT_FALSE(static_cast<bool>(c));
}

TEST(EventFn, MoveOnlyCapturesAreSupported)
{
    auto owned = std::make_unique<int>(9);
    int seen = 0;
    sim::EventFn fn([owned = std::move(owned), &seen] { seen = *owned; });
    sim::EventFn moved(std::move(fn));
    moved();
    EXPECT_EQ(seen, 9);
}

TEST(EventFn, DestroysTheCaptureExactlyOnce)
{
    int hits = 0;
    ASSERT_EQ(InstanceCounter::live, 0);
    {
        sim::EventFn fn{InstanceCounter(&hits)};
        EXPECT_EQ(InstanceCounter::live, 1);
        sim::EventFn moved(std::move(fn));
        EXPECT_EQ(InstanceCounter::live, 1);
        moved();
        EXPECT_EQ(hits, 1);
    }
    EXPECT_EQ(InstanceCounter::live, 0);
}

// --------------------------------------------- simulator on top of both

TEST(SimulatorQueue, CancellationSkipsWithoutDisturbingOrder)
{
    sim::Simulator s;
    std::vector<int> fired;
    s.scheduleAt(1 * sim::kMsec, [&] { fired.push_back(1); });
    const sim::EventId dropped =
        s.scheduleAt(2 * sim::kMsec, [&] { fired.push_back(2); });
    s.scheduleAt(3 * sim::kMsec, [&] { fired.push_back(3); });
    EXPECT_EQ(s.pendingEvents(), 3u);
    EXPECT_TRUE(s.cancel(dropped));
    EXPECT_FALSE(s.cancel(dropped)) << "second cancel must be a no-op";
    EXPECT_EQ(s.pendingEvents(), 2u);
    s.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
    EXPECT_EQ(s.eventsDispatched(), 2u)
        << "a cancelled event is skipped, not dispatched";
    EXPECT_FALSE(s.cancel(dropped)) << "cancel after drain is a no-op";
}

TEST(SimulatorQueue, CancelledIdsAreNotAliasedByNewEvents)
{
    // Cancel, then immediately schedule more events. If the slot were
    // recycled at cancel time, the stale queue entry would fire the
    // new event early; the kernel recycles only when the stale entry
    // is skipped at dispatch.
    sim::Simulator s;
    std::vector<int> fired;
    const sim::EventId dropped =
        s.scheduleAt(5 * sim::kMsec, [&] { fired.push_back(-1); });
    EXPECT_TRUE(s.cancel(dropped));
    for (int i = 0; i < 4; ++i) {
        s.scheduleAt((6 + i) * sim::kMsec,
                     [&fired, i] { fired.push_back(i); });
    }
    s.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorQueue, SchedulingAtNowDuringDispatchFiresInTurn)
{
    sim::Simulator s;
    std::vector<int> fired;
    s.scheduleAt(sim::kMsec, [&] {
        fired.push_back(0);
        s.scheduleAt(s.now(), [&] { fired.push_back(2); });
        s.scheduleAt(s.now(), [&] { fired.push_back(3); });
    });
    s.scheduleAt(sim::kMsec, [&] { fired.push_back(1); });
    s.run();
    // Same-timestamp events fire in schedule order, including ones
    // scheduled mid-dispatch at the current instant.
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorQueue, RandomScheduleStormMatchesSortOrder)
{
    // 50k events at random times over an hour (near window, far
    // window, rollovers, recycled ids after pops) — the fire order
    // must equal the stable sort by (time, schedule order).
    sim::Simulator s;
    sim::Rng rng(99);
    struct Expected
    {
        sim::SimTime time;
        std::uint64_t seq;
    };
    std::vector<Expected> expected;
    std::vector<std::uint64_t> fired;
    for (std::uint64_t seq = 0; seq < 50000; ++seq) {
        const auto t = static_cast<sim::SimTime>(
            rng.nextBelow(3600 * sim::kSec));
        expected.push_back({t, seq});
        s.scheduleAt(t, [&fired, seq] { fired.push_back(seq); });
    }
    std::sort(expected.begin(), expected.end(),
              [](const Expected &a, const Expected &b) {
                  return a.time != b.time ? a.time < b.time
                                          : a.seq < b.seq;
              });
    s.run();
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(fired[i], expected[i].seq) << "position " << i;
    EXPECT_EQ(s.now(), expected.back().time);
}

// ------------------------------------------------------ arrival streams

namespace {

/**
 * One side of the stream property test. Every dispatched item — a
 * scheduled event or a stream arrival — logs its label and then acts
 * as its label's seeded RNG dictates: schedule more events (same µs,
 * near, far), cancel an earlier one, or start a new stream. A
 * `streamed` harness registers streams with scheduleStream; the
 * reference schedules every arrival with its own scheduleAt, in index
 * order, at the same moment. Labels are handed out in creation order,
 * so both sides act alike for as long as they dispatch alike.
 */
struct StreamHarness
{
    explicit StreamHarness(bool streamed) : streamed(streamed) {}

    void
    addEvent(sim::SimTime t)
    {
        const std::uint64_t label = nextLabel++;
        const std::size_t index = eventIds.size();
        eventIds.push_back(s.scheduleAt(t, [this, label, index] {
            done[index] = 1;
            act(label);
        }));
        done.push_back(0);
    }

    void
    addStream(std::vector<sim::SimTime> times)
    {
        const std::uint64_t first = nextLabel;
        nextLabel += times.size();
        const std::vector<sim::SimTime> &kept =
            streamTimes.emplace_back(std::move(times));
        if (streamed) {
            s.scheduleStream(
                kept.size(), [&kept](std::size_t i) { return kept[i]; },
                [this, first](std::size_t i) { act(first + i); });
        } else {
            for (std::size_t i = 0; i < kept.size(); ++i) {
                const std::uint64_t label = first + i;
                s.scheduleAt(kept[i], [this, label] { act(label); });
            }
        }
    }

    void
    act(std::uint64_t label)
    {
        log.push_back(label);
        sim::Rng rng(label * 7919 + 13);
        const auto roll = rng.nextBelow(100);
        if (roll < 40) {
            const int n = 1 + static_cast<int>(rng.nextBelow(2));
            for (int k = 0; k < n; ++k) {
                const std::uint64_t horizon = rng.nextBelow(4);
                sim::SimTime dt = 0; // same µs as the running item
                if (horizon == 1)
                    dt = static_cast<sim::SimTime>(rng.nextBelow(4));
                else if (horizon == 2)
                    dt = static_cast<sim::SimTime>(
                        rng.nextBelow(5 * sim::kMsec));
                else if (horizon == 3)
                    dt = 3 * sim::kSec + static_cast<sim::SimTime>(
                                             rng.nextBelow(8 * sim::kSec));
                addEvent(s.now() + dt);
            }
        } else if (roll < 55 && !eventIds.empty()) {
            // Only a pending event's id is its own: a fired one's may
            // have been recycled, differently on the two sides.
            const auto k = rng.nextBelow(eventIds.size());
            cancels.push_back(!done[k] && s.cancel(eventIds[k]) ? 1 : 0);
            done[k] = 1;
        } else if (roll < 57 && streamTimes.size() < 12) {
            addStream(streamAt(rng, s.now(), 1 + rng.nextBelow(30)));
        }
    }

    /** Nondecreasing times from `t`, a third of them tied. */
    static std::vector<sim::SimTime>
    streamAt(sim::Rng &rng, sim::SimTime t, std::uint64_t n)
    {
        std::vector<sim::SimTime> times;
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t gap = rng.nextBelow(3);
            if (gap == 1)
                t += 1 + static_cast<sim::SimTime>(rng.nextBelow(3));
            else if (gap == 2)
                t += static_cast<sim::SimTime>(
                    rng.nextBelow(3 * sim::kMsec));
            times.push_back(t);
        }
        return times;
    }

    bool streamed;
    sim::Simulator s;
    std::uint64_t nextLabel = 0;
    std::vector<std::uint64_t> log;
    std::vector<int> cancels;
    std::vector<sim::EventId> eventIds;
    /** Per event: fired or cancelled. */
    std::vector<char> done;
    /** Stream times outlive the run (a deque never moves them). */
    std::deque<std::vector<sim::SimTime>> streamTimes;
};

} // namespace

TEST(SimulatorStream, DispatchesExactlyLikeOneScheduleAtPerArrival)
{
    std::size_t startedInDispatch = 0;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        StreamHarness streamed(true);
        StreamHarness reference(false);
        sim::Rng rng(500 + seed);
        // Set-up, identical on both sides: streams interleaved with
        // events, some tied to a stream's times to the microsecond.
        std::vector<sim::SimTime> deadlines;
        const int streams = 1 + static_cast<int>(rng.nextBelow(3));
        for (int k = 0; k < streams; ++k) {
            const auto times = StreamHarness::streamAt(
                rng, static_cast<sim::SimTime>(rng.nextBelow(sim::kMsec)),
                200 + rng.nextBelow(400));
            for (int e = 0; e < 20; ++e) {
                const sim::SimTime t =
                    e % 2 == 0 ? times[rng.nextBelow(times.size())]
                               : static_cast<sim::SimTime>(
                                     rng.nextBelow(times.back() + 1));
                streamed.addEvent(t);
                reference.addEvent(t);
                if (e % 5 == 0)
                    deadlines.push_back(times[rng.nextBelow(times.size())]);
            }
            streamed.addStream(times);
            reference.addStream(times);
        }
        ASSERT_EQ(streamed.s.pendingEvents(), reference.s.pendingEvents());
        std::sort(deadlines.begin(), deadlines.end());
        for (const sim::SimTime deadline : deadlines) {
            streamed.s.runUntil(deadline);
            reference.s.runUntil(deadline);
            ASSERT_EQ(streamed.log, reference.log)
                << "seed " << seed << ", deadline " << deadline;
            ASSERT_EQ(streamed.s.now(), reference.s.now());
            ASSERT_EQ(streamed.s.pendingEvents(),
                      reference.s.pendingEvents())
                << "seed " << seed << ", deadline " << deadline;
            ASSERT_EQ(streamed.s.eventsDispatched(),
                      reference.s.eventsDispatched());
        }
        streamed.s.run();
        reference.s.run();
        ASSERT_EQ(streamed.log, reference.log) << "seed " << seed;
        EXPECT_EQ(streamed.cancels, reference.cancels);
        EXPECT_EQ(streamed.s.now(), reference.s.now());
        EXPECT_EQ(streamed.s.pendingEvents(), 0u);
        EXPECT_EQ(streamed.s.eventsDispatched(),
                  reference.s.eventsDispatched());
        startedInDispatch +=
            streamed.streamTimes.size() - static_cast<std::size_t>(streams);
    }
    EXPECT_GT(startedInDispatch, 24u) << "streams started mid-dispatch";
}

TEST(SimulatorStream, ArrivalsTakeNoEventSlots)
{
    // A million-arrival stream next to a self-rescheduling event chain:
    // the kernel's slot table stays at the handful of queued events.
    sim::Simulator s;
    std::vector<sim::SimTime> times(1000000);
    for (std::size_t i = 0; i < times.size(); ++i)
        times[i] = static_cast<sim::SimTime>(i) * 10;
    std::size_t fired = 0;
    s.scheduleStream(
        times.size(), [&times](std::size_t i) { return times[i]; },
        [&fired](std::size_t) { ++fired; });
    std::function<void()> tick = [&] {
        if (s.now() < times.back())
            s.scheduleAfter(sim::kMsec, tick);
    };
    s.scheduleAt(0, tick);
    EXPECT_EQ(s.pendingEvents(), times.size() + 1);
    s.run();
    EXPECT_EQ(fired, times.size());
    EXPECT_LE(s.eventSlots(), 2u);
}

TEST(SimulatorStreamDeathTest, UnsortedArrivalsAreRejected)
{
    sim::Simulator s;
    const std::vector<sim::SimTime> times{5, 3};
    s.scheduleStream(
        times.size(), [&times](std::size_t i) { return times[i]; },
        [](std::size_t) {});
    EXPECT_DEATH(s.run(), "stream arrival times must be nondecreasing");
}

TEST(SimulatorQueueDeathTest, SchedulePastReportsBothClocksInSeconds)
{
    sim::Simulator s;
    s.scheduleAt(2 * sim::kSec, [] {});
    s.runUntil(2 * sim::kSec + 500 * sim::kMsec);
    EXPECT_EQ(s.now(), 2 * sim::kSec + 500 * sim::kMsec);
    // The message must carry both raw microseconds and human-readable
    // seconds for each clock.
    EXPECT_DEATH(
        s.scheduleAt(sim::kSec, [] {}),
        "cannot schedule in the past: t=1000000 \\(1 s\\) "
        "now=2500000 \\(2\\.5 s\\)");
}
