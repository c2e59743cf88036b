#include "chameleon/cache_manager.h"

#include <algorithm>
#include <cmath>

#include "obs/trace_recorder.h"
#include "simkit/check.h"

namespace chameleon::core {

using model::AdapterId;
using sim::SimTime;

namespace {
/** Time constant of the decayed use frequency, seconds. */
constexpr double kFrequencyTauSeconds = 60.0;
} // namespace

CacheManager::CacheManager(const model::AdapterPool &pool,
                           gpu::GpuMemory &mem, gpu::PcieLink &link,
                           const model::CostModel &cost, CacheConfig config)
    : pool_(pool), mem_(mem), link_(link), cost_(cost),
      config_(std::move(config)), minFreeBytes_(mem_.capacity() / 25),
      policy_(makeEvictionPolicy(config_.evictionPolicy)),
      loadPredictor_(120.0),
      entries_(static_cast<std::size_t>(pool.size()))
{
}

std::size_t
CacheManager::index(AdapterId id) const
{
    CHM_CHECK(id >= 0 && static_cast<std::size_t>(id) < entries_.size(),
              "adapter id out of range: " << id);
    return static_cast<std::size_t>(id);
}

CacheManager::Entry &
CacheManager::entry(AdapterId id)
{
    return entries_[index(id)];
}

const CacheManager::Entry &
CacheManager::entry(AdapterId id) const
{
    return entries_[index(id)];
}

std::int64_t
CacheManager::pinnedIdleShare(AdapterId id, const Entry &e) const
{
    const bool pinnedIdle = e.state == State::Resident && e.runningRc == 0 &&
                            e.queuedRc > 0;
    return pinnedIdle ? pool_.spec(id).bytes : 0;
}

int
CacheManager::queuedNotResidentShare(const Entry &e)
{
    return e.state == State::NotResident && e.queuedRc > 0 ? 1 : 0;
}

double
CacheManager::decayedFrequency(const Entry &e, SimTime now) const
{
    const double dt = sim::toSeconds(now - e.lastUsed);
    return e.frequency * std::exp(-dt / kFrequencyTauSeconds);
}

void
CacheManager::touch(Entry &e, SimTime now)
{
    e.frequency = decayedFrequency(e, now) + 1.0;
    e.lastUsed = now;
}

bool
CacheManager::isResident(AdapterId id) const
{
    return entry(id).state == State::Resident;
}

std::int64_t
CacheManager::cachedBytes() const
{
    return mem_.adapterCacheBytes();
}

std::vector<EvictionCandidate>
CacheManager::collectCandidates(bool includePinned, SimTime now) const
{
    std::vector<EvictionCandidate> out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        const auto id = static_cast<AdapterId>(i);
        if (e.state != State::Resident || e.runningRc != 0)
            continue; // in use or absent: never evictable (§4.2.2)
        const bool pinned = e.queuedRc > 0;
        if (pinned && !includePinned)
            continue;
        const auto &spec = pool_.spec(id);
        EvictionCandidate c;
        c.id = id;
        c.rank = spec.rank;
        c.bytes = spec.bytes;
        c.lastUsed = e.lastUsed;
        c.frequency = decayedFrequency(e, now);
        c.loadCostMs = sim::toMillis(cost_.adapterLoadTime(spec.bytes));
        c.queuedPinned = pinned;
        out.push_back(c);
    }
    return out;
}

std::int64_t
CacheManager::evictableBytes(bool includePinned) const
{
    // Every idle resident adapter sits in the cache bucket, and only
    // this manager fills or drains it.
    const std::int64_t cached = mem_.adapterCacheBytes();
    return includePinned ? cached : cached - pinnedIdleBytes_;
}

bool
CacheManager::evictUntilFree(std::int64_t bytes, bool includePinned,
                             SimTime now)
{
    // Feasibility first: do not destroy cache contents for a target
    // that cannot be reached anyway.
    if (mem_.freeBytes() + evictableBytes(includePinned) < bytes)
        return false;
    if (mem_.freeBytes() >= bytes)
        return true;
    // One candidate pass per shrink: nothing but the victim changes
    // inside the loop, so dropping it in place (order kept) leaves the
    // set a rebuild would produce.
    auto candidates = collectCandidates(includePinned, now);
    while (mem_.freeBytes() < bytes) {
        if (candidates.empty())
            return false;
        const std::size_t victim = policy_->pickVictim(candidates, now);
        const AdapterId vid = candidates[victim].id;
        candidates.erase(candidates.begin() +
                         static_cast<std::ptrdiff_t>(victim));
        Entry &ve = entry(vid);
        CHM_CHECK(ve.state == State::Resident && ve.runningRc == 0,
                  "evicting a non-idle adapter");
        pinnedIdleBytes_ -= pinnedIdleShare(vid, ve);
        mem_.freeAdapterCache(pool_.spec(vid).bytes);
        ve.state = State::NotResident;
        queuedNotResident_ += queuedNotResidentShare(ve);
        ++evictions_;
        notifyEvict(vid);
        if (trace_ != nullptr) {
            trace_->instant(tracePid_, obs::Lane::Cache, "evict", now,
                            {{"adapter", vid},
                             {"bytes", pool_.spec(vid).bytes}});
        }
    }
    return true;
}

bool
CacheManager::tryFreeMemory(std::int64_t bytes)
{
    if (mem_.freeBytes() >= bytes)
        return true;
    const auto before = evictions_;
    // Shrink past the request by the watermark so that subsequent KV
    // page allocations do not trigger an eviction each (churn guard);
    // success only requires the requested bytes, though. Unpinned idle
    // adapters go first; the adapters of queued requests are sacrificed
    // only when memory constraints make it necessary.
    evictUntilFree(bytes + minFreeBytes_, /*includePinned=*/false,
                   lastNow_);
    if (mem_.freeBytes() >= bytes) {
        kvShrinkEvictions_ += evictions_ - before;
        return true;
    }
    const bool ok = evictUntilFree(bytes, /*includePinned=*/true, lastNow_);
    kvShrinkEvictions_ += evictions_ - before;
    return ok;
}

SimTime
CacheManager::startLoad(AdapterId id, Entry &e, LoadKind kind, SimTime now)
{
    CHM_CHECK(e.state == State::NotResident, "load of resident adapter");
    const auto bytes = pool_.spec(id).bytes;
    const auto evictions_before = evictions_;
    switch (kind) {
      case LoadKind::Demand:
        // Admission may shrink the cache to make room.
        if (mem_.freeBytes() < bytes &&
            !evictUntilFree(bytes, false, now) &&
            !evictUntilFree(bytes, true, now)) {
            return sim::kTimeNever;
        }
        break;
      case LoadKind::QueuedPrefetch:
        // Adapters of waiting requests are near-term request state: the
        // cache yields unpinned entries to them (§4.2.1 "store all the
        // necessary state for incoming requests"). Pinned entries are
        // never displaced, and the free watermark stays untouched so
        // prefetching cannot starve KV growth into eviction churn.
        if (mem_.freeBytes() < bytes + minFreeBytes_ &&
            !evictUntilFree(bytes + minFreeBytes_,
                            /*includePinned=*/false, now)) {
            return sim::kTimeNever;
        }
        break;
      case LoadKind::PredictivePrefetch:
        // Speculation must not interfere: keep the watermark free.
        if (mem_.freeBytes() < bytes + minFreeBytes_)
            return sim::kTimeNever;
        break;
    }
    const bool ok = mem_.tryAllocAdapterInUse(bytes);
    CHM_CHECK(ok, "allocation must succeed after eviction");
    switch (kind) {
      case LoadKind::Demand:
        ++demandLoads_;
        demandEvictions_ += evictions_ - evictions_before;
        break;
      case LoadKind::QueuedPrefetch:
        ++queuedLoads_;
        prefetchEvictions_ += evictions_ - evictions_before;
        break;
      case LoadKind::PredictivePrefetch:
        ++predictiveLoads_;
        break;
    }
    if (trace_ != nullptr) {
        const char *event = kind == LoadKind::Demand ? "demand_load"
                            : kind == LoadKind::QueuedPrefetch
                                ? "queued_prefetch"
                                : "predictive_prefetch";
        trace_->instant(tracePid_, obs::Lane::Cache, event, now,
                        {{"adapter", id}, {"bytes", bytes}});
    }
    queuedNotResident_ -= queuedNotResidentShare(e);
    e.state = State::Loading;
    notifyLoadStart(id);
    e.readyAt = link_.enqueue(bytes, [this, id] {
        auto &ent = entry(id);
        CHM_CHECK(ent.state == State::Loading, "transfer done, not loading");
        ent.state = State::Resident;
        pinnedIdleBytes_ += pinnedIdleShare(id, ent);
        if (ent.runningRc == 0) {
            // Landed as a prefetch: it sits in the cache until claimed.
            mem_.moveInUseToCache(pool_.spec(id).bytes);
        }
        notifyLoadComplete(id);
    });
    return e.readyAt;
}

SimTime
CacheManager::peerAdmit(AdapterId id, SimTime readyAt, SimTime now)
{
    lastNow_ = now;
    Entry &e = entry(id);
    if (e.state != State::NotResident) {
        // Already usable or inbound over the host link; nothing to
        // admit (the fabric treats this as a decline and reserves no
        // peer bandwidth).
        return sim::kTimeNever;
    }
    const auto bytes = pool_.spec(id).bytes;
    // A peer-warmed adapter is speculation, exactly like a predictive
    // prefetch: it may displace unpinned idle cache entries but must
    // leave the interference watermark free (§4.2.1) so migration can
    // never starve KV growth.
    const auto evictionsBefore = evictions_;
    if (mem_.freeBytes() < bytes + minFreeBytes_ &&
        !evictUntilFree(bytes + minFreeBytes_,
                        /*includePinned=*/false, now)) {
        return sim::kTimeNever;
    }
    peerAdmitEvictions_ += evictions_ - evictionsBefore;
    const bool ok = mem_.tryAllocAdapterInUse(bytes);
    CHM_CHECK(ok, "allocation must succeed after eviction");
    ++peerLoads_;
    if (trace_ != nullptr) {
        trace_->instant(tracePid_, obs::Lane::Cache, "peer_load", now,
                        {{"adapter", id}, {"bytes", bytes}});
    }
    queuedNotResident_ -= queuedNotResidentShare(e);
    e.state = State::Loading;
    e.readyAt = std::max(readyAt, now);
    notifyLoadStart(id);
    // The weights ride a peer link modelled by the fabric, not the
    // host PcieLink: schedule the Resident flip directly, so host PCIe
    // counters stay flat for migrated adapters.
    link_.simulator().scheduleAt(e.readyAt, [this, id] {
        auto &ent = entry(id);
        CHM_CHECK(ent.state == State::Loading,
                  "peer transfer done, not loading");
        ent.state = State::Resident;
        pinnedIdleBytes_ += pinnedIdleShare(id, ent);
        if (ent.runningRc == 0) {
            // Landed unclaimed: it sits in the cache until acquired.
            mem_.moveInUseToCache(pool_.spec(id).bytes);
        }
        notifyLoadComplete(id);
    });
    return e.readyAt;
}

SimTime
CacheManager::acquire(AdapterId id, SimTime now)
{
    lastNow_ = now;
    Entry &e = entry(id);
    SimTime ready;
    switch (e.state) {
      case State::Resident:
        if (e.runningRc == 0) {
            pinnedIdleBytes_ -= pinnedIdleShare(id, e);
            mem_.moveCacheToInUse(pool_.spec(id).bytes);
        }
        ready = now;
        break;
      case State::Loading:
        ready = std::max(e.readyAt, now);
        break;
      case State::NotResident:
        ready = startLoad(id, e, LoadKind::Demand, now);
        if (ready == sim::kTimeNever)
            return sim::kTimeNever;
        break;
      default:
        CHM_PANIC("unreachable adapter state");
    }
    ++e.runningRc;
    touch(e, now);
    notifyAcquire(id, now);
    return ready;
}

void
CacheManager::release(AdapterId id)
{
    Entry &e = entry(id);
    CHM_CHECK(e.runningRc > 0, "release without acquire for " << id);
    --e.runningRc;
    notifyRelease(id);
    if (e.runningRc == 0 && e.state == State::Resident) {
        if (e.queuedRc > 0 || mem_.freeBytes() >= minFreeBytes_) {
            // Contrary to the baseline: retain the adapter in the cache.
            // Adapters still referenced by queued requests are always
            // kept - discarding them would force an immediate refetch.
            mem_.moveInUseToCache(pool_.spec(id).bytes);
            pinnedIdleBytes_ += pinnedIdleShare(id, e);
        } else {
            // Under memory pressure caching an unreferenced adapter
            // would immediately interfere with KV growth; hand the
            // memory back instead (§4.2.1).
            mem_.freeAdapterInUse(pool_.spec(id).bytes);
            e.state = State::NotResident;
            notifyEvict(id);
        }
    }
}

bool
CacheManager::canMakeResident(AdapterId id) const
{
    if (entry(id).state != State::NotResident)
        return true;
    const auto bytes = pool_.spec(id).bytes;
    return bytes <= mem_.freeBytes() + evictableBytes(/*includePinned=*/true);
}

void
CacheManager::onRequestQueued(AdapterId id, SimTime now)
{
    lastNow_ = now;
    Entry &e = entry(id);
    pinnedIdleBytes_ -= pinnedIdleShare(id, e);
    queuedNotResident_ -= queuedNotResidentShare(e);
    ++e.queuedRc;
    pinnedIdleBytes_ += pinnedIdleShare(id, e);
    queuedNotResident_ += queuedNotResidentShare(e);
    // Only predictive prefetch reads the arrival histogram.
    if (config_.predictivePrefetch)
        loadPredictor_.recordArrival(id, now);
    // Hit/miss accounting is per arriving request: a hit means the
    // weights were already resident (in use or cached) at arrival.
    if (e.state == State::Resident) {
        ++hits_;
    } else {
        ++misses_;
    }
    if (e.state == State::NotResident)
        startLoad(id, e, LoadKind::QueuedPrefetch, now);
}

void
CacheManager::onRequestDequeued(AdapterId id)
{
    Entry &e = entry(id);
    CHM_CHECK(e.queuedRc > 0, "dequeue without queue ref for " << id);
    pinnedIdleBytes_ -= pinnedIdleShare(id, e);
    queuedNotResident_ -= queuedNotResidentShare(e);
    --e.queuedRc;
    pinnedIdleBytes_ += pinnedIdleShare(id, e);
    queuedNotResident_ += queuedNotResidentShare(e);
}

void
CacheManager::onSchedulingCycle(const std::vector<AdapterId> &queued,
                                SimTime now)
{
    lastNow_ = now;
    for (AdapterId id : queued) {
        Entry &e = entry(id);
        if (e.state == State::NotResident)
            startLoad(id, e, LoadKind::QueuedPrefetch, now);
    }
    if (config_.predictivePrefetch) {
        for (AdapterId id :
             loadPredictor_.hottest(now, config_.predictiveTopK)) {
            Entry &e = entry(id);
            if (e.state == State::NotResident)
                startLoad(id, e, LoadKind::PredictivePrefetch, now);
        }
    }
}

} // namespace chameleon::core
