#include "simkit/simulator.h"

#include <limits>
#include <utility>

#include "simkit/check.h"

namespace chameleon::sim {

namespace {
void
checkNotPast(SimTime t, SimTime now)
{
    CHM_CHECK(t >= now, "cannot schedule in the past: t="
                            << t << " (" << toSeconds(t) << " s) now=" << now
                            << " (" << toSeconds(now) << " s)");
}
} // namespace

EventId
Simulator::scheduleImpl(SimTime t, EventFn &&fn)
{
    checkNotPast(t, now_);
    EventId id;
    if (lastFreed_ != kNoSlot) {
        id = lastFreed_;
        lastFreed_ = kNoSlot;
    } else if (!freeSlots_.empty()) {
        id = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        if ((slotCount_ & (kSlotBlock - 1)) == 0) {
            slotBlocks_.push_back(std::make_unique<SlotBlock>());
            blockPtrs_.push_back(slotBlocks_.back()->data());
            blockTable_ = blockPtrs_.data();
        }
        id = slotCount_++;
    }
    Slot &s = slot(id);
    s.fn = std::move(fn);
    s.state = SlotState::Live;
    ++pendingLive_;
    queue_.push(EventKey{t, nextSeq_++, id});
    return id;
}

EventId
Simulator::scheduleAfter(SimTime delay, EventFn fn)
{
    CHM_CHECK(delay >= 0, "negative delay " << delay);
    return scheduleImpl(now_ + delay, std::move(fn));
}

bool
Simulator::cancel(EventId id)
{
    if (id >= slotCount_ || slot(id).state != SlotState::Live)
        return false;
    Slot &s = slot(id);
    s.state = SlotState::Cancelled;
    s.fn = nullptr;
    --pendingLive_;
    // The queue entry stays and is skipped at dispatch time.
    return true;
}

void
Simulator::scheduleStream(std::size_t count,
                          std::function<SimTime(std::size_t)> timeOf,
                          std::function<void(std::size_t)> fire)
{
    if (count == 0)
        return;
    auto s = std::make_unique<Stream>();
    s->time = timeOf(0);
    checkNotPast(s->time, now_);
    s->timeOf = std::move(timeOf);
    s->fire = std::move(fire);
    s->count = count;
    // The sequence numbers `count` scheduleAt calls would have taken.
    s->seq0 = nextSeq_;
    nextSeq_ += count;
    streamPending_ += count;
    streams_.push_back(std::move(s));
    refreshHead();
}

void
Simulator::refreshHead()
{
    head_ = nullptr;
    for (const auto &s : streams_) {
        if (s->next == s->count)
            continue; // exhausted; its fire() is still running
        if (head_ == nullptr || s->time < head_->time ||
            (s->time == head_->time && s->seq() < head_->seq())) {
            head_ = s.get();
        }
    }
}

void
Simulator::fireStream(Stream &s)
{
    const std::size_t i = s.next++;
    CHM_CHECK(s.time >= now_, "event queue time went backwards");
    now_ = s.time;
    --streamPending_;
    ++dispatched_;
    // Advance before firing, so the closure sees a consistent kernel
    // (pendingEvents, a scheduleStream of its own).
    if (s.next < s.count) {
        const SimTime t = s.timeOf(s.next);
        CHM_CHECK(t >= s.time, "stream arrival times must be "
                               "nondecreasing: "
                                   << t << " after " << s.time);
        s.time = t;
    }
    if (streams_.size() > 1 || s.next == s.count)
        refreshHead();
    s.fire(i);
    if (s.next == s.count) {
        // Destroy the exhausted stream only now that its closure has
        // returned.
        for (auto it = streams_.begin(); it != streams_.end(); ++it) {
            if (it->get() == &s) {
                streams_.erase(it);
                break;
            }
        }
    }
}

void
Simulator::dispatchKey(const EventKey &key)
{
    Slot &s = slot(key.id);
    if (s.state != SlotState::Live) {
        // Cancelled entry: the skip is where the id gets recycled.
        if (s.state == SlotState::Cancelled) {
            s.state = SlotState::Free;
            freeSlots_.push_back(key.id);
        }
        return;
    }
    CHM_CHECK(key.time >= now_, "event queue time went backwards");
    now_ = key.time;
    // Slots have stable addresses, so the closure runs in place — no
    // move-out copy. Freeing the state first makes a self-cancel a
    // no-op, and the id joins freeSlots_ only after the call returns,
    // so an event scheduled from inside the closure can never reuse
    // (and overwrite) the slot of the closure that is running.
    s.state = SlotState::Free;
    --pendingLive_;
    ++dispatched_;
    s.fn();
    s.fn = nullptr;
    // Park the id for the schedule call the closure most likely just
    // made a sibling of; only a second consecutive dispatch without a
    // schedule in between spills to the freeSlots_ vector.
    if (lastFreed_ != kNoSlot)
        freeSlots_.push_back(lastFreed_);
    lastFreed_ = key.id;
}

bool
Simulator::dispatchNext(SimTime deadline)
{
    if (!queue_.empty()) {
        const EventKey &top = queue_.top();
        if (head_ == nullptr || top.time < head_->time ||
            (top.time == head_->time && top.seq < head_->seq())) {
            if (top.time > deadline)
                return false;
            const EventKey key = top;
            queue_.pop();
            dispatchKey(key);
            return true;
        }
    }
    if (head_ == nullptr || head_->time > deadline)
        return false;
    fireStream(*head_);
    return true;
}

void
Simulator::run()
{
    while (dispatchNext(std::numeric_limits<SimTime>::max())) {
    }
}

void
Simulator::runUntil(SimTime deadline)
{
    while (dispatchNext(deadline)) {
    }
    if (now_ < deadline)
        now_ = deadline;
}

} // namespace chameleon::sim
