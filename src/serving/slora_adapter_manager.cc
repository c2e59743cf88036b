#include "serving/slora_adapter_manager.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::serving {

using model::AdapterId;
using sim::SimTime;

SLoraAdapterManager::SLoraAdapterManager(const model::AdapterPool &pool,
                                         gpu::GpuMemory &mem,
                                         gpu::PcieLink &link,
                                         bool prefetchEnabled)
    : pool_(pool), mem_(mem), link_(link), prefetchEnabled_(prefetchEnabled),
      entries_(static_cast<std::size_t>(pool.size()))
{
}

std::size_t
SLoraAdapterManager::index(AdapterId id) const
{
    CHM_CHECK(id >= 0 && static_cast<std::size_t>(id) < entries_.size(),
              "adapter id out of range: " << id);
    return static_cast<std::size_t>(id);
}

SLoraAdapterManager::Entry &
SLoraAdapterManager::entry(AdapterId id)
{
    return entries_[index(id)];
}

const SLoraAdapterManager::Entry &
SLoraAdapterManager::entry(AdapterId id) const
{
    return entries_[index(id)];
}

int
SLoraAdapterManager::queuedNotResidentShare(const Entry &e)
{
    return e.state == State::NotResident && e.queuedRc > 0 ? 1 : 0;
}

bool
SLoraAdapterManager::isResident(AdapterId id) const
{
    return entry(id).state == State::Resident;
}

SimTime
SLoraAdapterManager::startLoad(AdapterId id, Entry &e, bool prefetch)
{
    CHM_CHECK(e.state == State::NotResident, "load of resident adapter");
    const auto bytes = pool_.spec(id).bytes;
    if (prefetch) {
        // Prefetching for the whole queue must not starve KV growth:
        // keep a headroom of free memory for request state, or the
        // engine deadlocks with all memory pinned by waiting adapters.
        const std::int64_t headroom = mem_.capacity() / 25;
        if (mem_.freeBytes() < bytes + headroom)
            return sim::kTimeNever;
    }
    if (!mem_.tryAllocAdapterInUse(bytes))
        return sim::kTimeNever;
    queuedNotResident_ -= queuedNotResidentShare(e);
    e.state = State::Loading;
    notifyLoadStart(id);
    e.readyAt = link_.enqueue(bytes, [this, id] {
        auto &ent = entry(id);
        CHM_CHECK(ent.state == State::Loading, "transfer done on non-loading");
        ent.state = State::Resident;
        notifyLoadComplete(id);
        maybeDiscard(id, ent);
    });
    return e.readyAt;
}

void
SLoraAdapterManager::maybeDiscard(AdapterId id, Entry &e)
{
    // Discard-on-idle: as soon as no running or queued request needs the
    // adapter, its memory is returned (conventional design, §2).
    if (e.state == State::Resident && e.runningRc == 0 && e.queuedRc == 0) {
        mem_.freeAdapterInUse(pool_.spec(id).bytes);
        e.state = State::NotResident;
        notifyEvict(id);
    }
}

SimTime
SLoraAdapterManager::acquire(AdapterId id, SimTime now)
{
    Entry &e = entry(id);
    SimTime ready;
    switch (e.state) {
      case State::Resident:
        ready = now;
        break;
      case State::Loading:
        ready = std::max(e.readyAt, now);
        break;
      case State::NotResident:
        ready = startLoad(id, e, /*prefetch=*/false);
        if (ready == sim::kTimeNever)
            return sim::kTimeNever;
        break;
      default:
        CHM_PANIC("unreachable adapter state");
    }
    ++e.runningRc;
    notifyAcquire(id, now);
    return ready;
}

void
SLoraAdapterManager::release(AdapterId id)
{
    Entry &e = entry(id);
    CHM_CHECK(e.runningRc > 0, "release without acquire for adapter " << id);
    --e.runningRc;
    notifyRelease(id);
    maybeDiscard(id, e);
}

bool
SLoraAdapterManager::canMakeResident(AdapterId id) const
{
    if (entry(id).state != State::NotResident)
        return true;
    return pool_.spec(id).bytes <= mem_.freeBytes();
}

void
SLoraAdapterManager::onRequestQueued(AdapterId id, SimTime)
{
    Entry &e = entry(id);
    queuedNotResident_ -= queuedNotResidentShare(e);
    ++e.queuedRc;
    queuedNotResident_ += queuedNotResidentShare(e);
    // Hit/miss accounting is per arriving request: a hit means the
    // weights were already on the GPU when the request arrived.
    if (e.state == State::Resident) {
        ++hits_;
    } else {
        ++misses_;
    }
    if (prefetchEnabled_ && e.state == State::NotResident)
        startLoad(id, e, /*prefetch=*/true); // best-effort; may not fit
}

void
SLoraAdapterManager::onRequestDequeued(AdapterId id)
{
    Entry &e = entry(id);
    CHM_CHECK(e.queuedRc > 0, "dequeue without queue ref for " << id);
    queuedNotResident_ -= queuedNotResidentShare(e);
    --e.queuedRc;
    queuedNotResident_ += queuedNotResidentShare(e);
    maybeDiscard(id, e);
}

void
SLoraAdapterManager::onSchedulingCycle(const std::vector<AdapterId> &queued,
                                       SimTime)
{
    if (!prefetchEnabled_)
        return;
    // Retry prefetches that previously failed for lack of memory.
    for (AdapterId id : queued) {
        Entry &e = entry(id);
        if (e.state == State::NotResident)
            startLoad(id, e, /*prefetch=*/true);
    }
}

bool
SLoraAdapterManager::tryFreeMemory(std::int64_t bytes)
{
    if (mem_.freeBytes() >= bytes)
        return true;
    // No idle-adapter cache to shrink, but prefetched adapters of
    // queued (not yet running) requests can be reclaimed for request
    // state — they will simply be refetched on demand later. Reclaim
    // runs in ascending id order.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (mem_.freeBytes() >= bytes)
            break;
        Entry &e = entries_[i];
        const auto id = static_cast<AdapterId>(i);
        if (e.state == State::Resident && e.runningRc == 0) {
            mem_.freeAdapterInUse(pool_.spec(id).bytes);
            e.state = State::NotResident;
            queuedNotResident_ += queuedNotResidentShare(e);
            notifyEvict(id);
        }
    }
    return mem_.freeBytes() >= bytes;
}

} // namespace chameleon::serving
