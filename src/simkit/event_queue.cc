#include "simkit/event_queue.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::sim {

CalendarQueue::CalendarQueue() : buckets_(kBucketCount) {}

void
CalendarQueue::pushNear(const EventKey &key, std::uint64_t bucket)
{
    auto &slot = buckets_[bucket & kBucketMask];
    if (bucket == curBucket_ && curSorted_) {
        // The cursor bucket is kept sorted latest-first so pops are
        // plain pop_backs; a late insert finds its place with one
        // binary search (buckets hold a handful of events).
        slot.insert(std::upper_bound(slot.begin(), slot.end(), key,
                                     EventAfter{}),
                    key);
    } else {
        slot.push_back(key);
    }
    ++nearCount_;
}

void
CalendarQueue::push(const EventKey &key)
{
    // The kernel never schedules into the past, so bucketOf(key.time)
    // >= the bucket that produced `now`. The cursor, however, may
    // already have advanced past empty buckets inside settle(); such a
    // key still belongs "now or later" and joins the cursor bucket,
    // where (time, seq) ordering places it correctly.
    std::uint64_t bucket = bucketOf(key.time);
    if (bucket < curBucket_)
        bucket = curBucket_;
    if (bucket < curBucket_ + kBucketCount) {
        pushNear(key, bucket);
    } else {
        if (farSorted_.empty() ||
            !EventAfter{}(farSorted_.back(), key)) {
            farSorted_.push_back(key);
        } else {
            farHeap_.push_back(key);
            std::push_heap(farHeap_.begin(), farHeap_.end(),
                           EventAfter{});
        }
        if (bucket < nextFarBucket_)
            nextFarBucket_ = bucket;
    }
    ++size_;
}

void
CalendarQueue::refreshNextFar()
{
    nextFarBucket_ = ~std::uint64_t{0};
    if (!farSorted_.empty())
        nextFarBucket_ = bucketOf(farSorted_.front().time);
    if (!farHeap_.empty()) {
        const std::uint64_t b = bucketOf(farHeap_.front().time);
        if (b < nextFarBucket_)
            nextFarBucket_ = b;
    }
}

void
CalendarQueue::migrateFar()
{
    const std::uint64_t windowEnd = curBucket_ + kBucketCount;
    while (!farSorted_.empty() &&
           bucketOf(farSorted_.front().time) < windowEnd) {
        const EventKey key = farSorted_.front();
        farSorted_.pop_front();
        pushNear(key, bucketOf(key.time));
    }
    while (!farHeap_.empty() &&
           bucketOf(farHeap_.front().time) < windowEnd) {
        const EventKey key = farHeap_.front();
        std::pop_heap(farHeap_.begin(), farHeap_.end(), EventAfter{});
        farHeap_.pop_back();
        pushNear(key, bucketOf(key.time));
    }
    refreshNextFar();
}

void
CalendarQueue::settle()
{
    CHM_CHECK(size_ > 0, "top/pop on an empty event queue");
    while (true) {
        if (nextFarBucket_ < curBucket_ + kBucketCount)
            migrateFar();
        auto &slot = buckets_[curBucket_ & kBucketMask];
        if (!slot.empty()) {
            if (!curSorted_) {
                // Latest-first, so the next event to fire sits at the
                // back: top() is a back() read and pop() a pop_back.
                // (time, seq) is a strict total order, so this sort
                // yields the same dispatch stream a heap would.
                std::sort(slot.begin(), slot.end(), EventAfter{});
                curSorted_ = true;
            }
            return;
        }
        curSorted_ = false;
        if (nearCount_ > 0) {
            ++curBucket_;
            continue;
        }
        // The ring is empty; jump the cursor to the earliest far
        // event's bucket and let migration refill the window.
        CHM_CHECK(nextFarBucket_ != ~std::uint64_t{0},
                  "event queue lost track of its size");
        curBucket_ = nextFarBucket_;
    }
}

const EventKey &
CalendarQueue::top()
{
    settle();
    return buckets_[curBucket_ & kBucketMask].back();
}

void
CalendarQueue::pop()
{
    // Right after top() the cursor bucket is non-empty and sorted, and
    // its back is the minimum, so the dispatch loop's top() + pop()
    // settles once; any other pop settles here.
    auto *slot = &buckets_[curBucket_ & kBucketMask];
    if (slot->empty() || !curSorted_) {
        settle();
        slot = &buckets_[curBucket_ & kBucketMask];
    }
    slot->pop_back();
    --nearCount_;
    --size_;
}

} // namespace chameleon::sim
