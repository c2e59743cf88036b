/**
 * @file
 * The Chameleon Adapter Cache and its Cache Manager (§4.2).
 *
 * A transparent, adaptive, interference-free software cache for LoRA
 * adapters in otherwise-idle GPU memory:
 *  - adapters whose reference count drops to zero are *retained* in the
 *    cache instead of discarded;
 *  - the cache is dynamically sized: whenever request state (KV pages,
 *    activations, missing adapters) needs memory, the manager shrinks
 *    the cache by evicting idle adapters with a cost-aware policy;
 *  - adapters of queued requests are fetched while they wait (the
 *    S-LoRA-style queued prefetch) and pinned (evicted only under real
 *    memory pressure);
 *  - per-adapter metadata (rank/size, last-used time, decayed use
 *    frequency, reference count) feeds the eviction score;
 *  - optionally, a histogram-based future-load predictor prefetches
 *    adapters for requests that have not arrived yet (§4.2.3; off by
 *    default, as in the paper).
 */

#ifndef CHAMELEON_CHAMELEON_CACHE_MANAGER_H
#define CHAMELEON_CHAMELEON_CACHE_MANAGER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "chameleon/eviction.h"
#include "gpu/gpu_memory.h"
#include "gpu/pcie_link.h"
#include "model/cost_model.h"
#include "predict/load_predictor.h"
#include "serving/adapter_manager.h"
#include "simkit/simulator.h"

namespace chameleon::core {

/** Cache manager configuration. */
struct CacheConfig
{
    /** Eviction policy name: chameleon / fairshare / lru / gdsf. */
    std::string evictionPolicy = "chameleon";
    /** Histogram-based predictive prefetch (§4.2.3; off by default). */
    bool predictivePrefetch = false;
    /** Predictive prefetch width (adapters per cycle). */
    std::size_t predictiveTopK = 8;
};

/** AdapterManager implementation with the Chameleon cache. */
class CacheManager : public serving::AdapterManager
{
  public:
    CacheManager(const model::AdapterPool &pool, gpu::GpuMemory &mem,
                 gpu::PcieLink &link, const model::CostModel &cost,
                 CacheConfig config = CacheConfig{});

    const char *name() const override { return "chameleon-cache"; }

    bool isResident(model::AdapterId id) const override;
    sim::SimTime acquire(model::AdapterId id, sim::SimTime now) override;
    void release(model::AdapterId id) override;
    bool canMakeResident(model::AdapterId id) const override;
    void onRequestQueued(model::AdapterId id, sim::SimTime now) override;
    void onRequestDequeued(model::AdapterId id) override;
    void onSchedulingCycle(const std::vector<model::AdapterId> &queued,
                           sim::SimTime now) override;
    /** Only the queued prefetch reads the list, and it only acts on a
     * queued adapter that is neither resident nor loading. */
    bool
    needsQueuedAdapters() const override
    {
        return queuedNotResident_ > 0;
    }
    bool tryFreeMemory(std::int64_t bytes) override;

    /**
     * Accept adapter weights over a peer link (cache-fabric
     * migration): reserve memory like a predictive prefetch — only
     * with the interference watermark intact, evicting unpinned idle
     * entries at most — and flip the adapter Resident at `readyAt`
     * through the simulator, bypassing the host PCIe link entirely.
     * Returns the usable time, or sim::kTimeNever when declined.
     */
    sim::SimTime peerAdmit(model::AdapterId id, sim::SimTime readyAt,
                           sim::SimTime now) override;

    std::int64_t hits() const override { return hits_; }
    std::int64_t misses() const override { return misses_; }
    std::int64_t cachedBytes() const override;

    /** Record evictions and transfer starts on the Cache lane. */
    void setTraceRecorder(obs::TraceRecorder *recorder, int pid) override
    {
        trace_ = recorder;
        tracePid_ = pid;
    }

    /**
     * Bytes a shrink could reclaim: idle resident adapters, those
     * pinned by queued requests only when `includePinned`. O(1).
     */
    std::int64_t evictableBytes(bool includePinned) const;
    /** Adapters with a queued reference that are neither resident nor
     * loading. O(1). */
    std::int64_t queuedNotResident() const { return queuedNotResident_; }
    /** Total evictions performed. */
    std::int64_t evictions() const { return evictions_; }
    /** Evictions triggered by KV/memory shrink requests. */
    std::int64_t kvShrinkEvictions() const { return kvShrinkEvictions_; }
    /** Evictions triggered by demand adapter loads. */
    std::int64_t demandEvictions() const { return demandEvictions_; }
    /** Evictions triggered by queued prefetches. */
    std::int64_t prefetchEvictions() const { return prefetchEvictions_; }
    /** Evictions made room for peer-migrated adapters (peerAdmit). */
    std::int64_t peerAdmitEvictions() const { return peerAdmitEvictions_; }
    /** Transfers started, by kind. */
    std::int64_t demandLoads() const { return demandLoads_; }
    std::int64_t queuedLoads() const { return queuedLoads_; }
    std::int64_t predictiveLoads() const { return predictiveLoads_; }
    /** Peer-link admits accepted (cache-fabric migrations landed). */
    std::int64_t peerLoads() const { return peerLoads_; }
    const EvictionPolicy &policy() const { return *policy_; }

  private:
    enum class State : std::uint8_t { NotResident, Loading, Resident };

    struct Entry
    {
        State state = State::NotResident;
        int runningRc = 0;
        int queuedRc = 0;
        sim::SimTime readyAt = 0;
        /** Last acquire; also the reference time of `frequency`. */
        sim::SimTime lastUsed = 0;
        double frequency = 0.0;
    };

    /** What triggered a transfer; governs how aggressive it may be. */
    enum class LoadKind {
        Demand,             ///< Admission: may evict idle adapters.
        QueuedPrefetch,     ///< Waiting request: free memory only.
        PredictivePrefetch, ///< Speculation: leaves the watermark free.
    };

    /** `id` as an index into entries_; range-checked. */
    std::size_t index(model::AdapterId id) const;
    Entry &entry(model::AdapterId id);
    const Entry &entry(model::AdapterId id) const;
    /** Bytes `e` adds to pinnedIdleBytes_ (0 unless idle and pinned). */
    std::int64_t pinnedIdleShare(model::AdapterId id, const Entry &e) const;
    /** What `e` adds to queuedNotResident_ (1 if queued and absent). */
    static int queuedNotResidentShare(const Entry &e);
    void touch(Entry &e, sim::SimTime now);
    double decayedFrequency(const Entry &e, sim::SimTime now) const;
    sim::SimTime startLoad(model::AdapterId id, Entry &e, LoadKind kind,
                           sim::SimTime now);
    /** Evict idle adapters (optionally pinned ones too) by policy. */
    bool evictUntilFree(std::int64_t bytes, bool includePinned,
                        sim::SimTime now);
    std::vector<EvictionCandidate> collectCandidates(bool includePinned,
                                                     sim::SimTime now) const;

    const model::AdapterPool &pool_;
    gpu::GpuMemory &mem_;
    gpu::PcieLink &link_;
    const model::CostModel &cost_;
    CacheConfig config_;
    /**
     * Interference-free watermark (§4.2.1), 4% of device capacity: the
     * cache neither fills via prefetch nor retains a released adapter
     * unless at least this many bytes stay free for incoming request
     * state, and KV-driven shrinks overshoot down to it. Prevents the
     * cache from thrashing against KV-cache growth under memory
     * pressure.
     */
    const std::int64_t minFreeBytes_;
    std::unique_ptr<EvictionPolicy> policy_;
    predict::HistogramLoadPredictor loadPredictor_;
    /** Per-adapter state, indexed by adapter id (ids are dense). */
    std::vector<Entry> entries_;
    /**
     * Bytes of Resident entries with no running but some queued
     * reference: the cache bytes a pinned-sparing shrink may not take.
     */
    std::int64_t pinnedIdleBytes_ = 0;
    /** Entries with queuedRc > 0 in state NotResident. */
    std::int64_t queuedNotResident_ = 0;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t evictions_ = 0;
    std::int64_t kvShrinkEvictions_ = 0;
    std::int64_t demandEvictions_ = 0;
    std::int64_t prefetchEvictions_ = 0;
    std::int64_t peerAdmitEvictions_ = 0;
    std::int64_t demandLoads_ = 0;
    std::int64_t queuedLoads_ = 0;
    std::int64_t predictiveLoads_ = 0;
    std::int64_t peerLoads_ = 0;
    /** Most recent simulation time observed (tryFreeMemory has no now). */
    sim::SimTime lastNow_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
    int tracePid_ = 0;
};

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_CACHE_MANAGER_H
