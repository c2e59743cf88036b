/**
 * @file
 * Adapter residency management interface.
 *
 * An AdapterManager decides which LoRA adapters occupy GPU memory and
 * when transfers happen. Two implementations exist:
 *  - SLoraAdapterManager (this directory): the baseline — fetch on
 *    demand, asynchronously prefetch adapters of queued requests, and
 *    discard an adapter the moment no running or queued request uses it.
 *  - chameleon::CacheManager: keeps idle adapters in a dynamically-sized
 *    cache with a cost-aware eviction policy (§4.2).
 */

#ifndef CHAMELEON_SERVING_ADAPTER_MANAGER_H
#define CHAMELEON_SERVING_ADAPTER_MANAGER_H

#include <cstdint>
#include <vector>

#include "model/adapter.h"
#include "simkit/time.h"

namespace chameleon::obs {
class TraceRecorder;
}

namespace chameleon::serving {

/**
 * Cluster-level observer of one replica's adapter residency. An
 * AdapterManager with a listener attached reports every residency
 * transition (load start/complete, eviction) and reference-count move
 * (acquire/release), keyed by the replica index given at attach time.
 * The cache fabric's ResidencyDirectory implements this to keep a
 * cluster-wide adapter -> {replica, tier, refcount, last-use} map
 * coherent without polling per-replica caches. Listeners only observe;
 * they must never call back into the reporting manager.
 */
class ResidencyEvents
{
  public:
    virtual ~ResidencyEvents() = default;

    /** A transfer started (NotResident -> Loading). */
    virtual void onLoadStart(int replica, model::AdapterId id) = 0;
    /** The transfer completed (Loading -> Resident). */
    virtual void onLoadComplete(int replica, model::AdapterId id) = 0;
    /** The adapter left device memory (-> NotResident). */
    virtual void onEvict(int replica, model::AdapterId id) = 0;
    /** A running reference was taken (admission). */
    virtual void onAcquire(int replica, model::AdapterId id,
                           sim::SimTime now) = 0;
    /** A running reference was dropped (finish or squash). */
    virtual void onRelease(int replica, model::AdapterId id) = 0;
};

/** Residency/transfer policy for LoRA adapters on one engine. */
class AdapterManager
{
  public:
    virtual ~AdapterManager() = default;

    virtual const char *name() const = 0;

    /** Usable right now (weights resident and transfer complete)? */
    virtual bool isResident(model::AdapterId id) const = 0;

    /**
     * Make the adapter resident for an admitted request and take a
     * running reference on it. Returns the time at which the adapter is
     * usable: now if resident, the transfer completion time if loading
     * or freshly fetched, or sim::kTimeNever if memory for it cannot be
     * obtained even after evicting everything idle.
     */
    virtual sim::SimTime acquire(model::AdapterId id, sim::SimTime now) = 0;

    /** Drop a running reference (request finished or was squashed). */
    virtual void release(model::AdapterId id) = 0;

    /**
     * Could acquire() succeed right now (memory-wise)? Must not commit
     * anything. Used by admission checks and bypass.
     */
    virtual bool canMakeResident(model::AdapterId id) const = 0;

    /** A request targeting this adapter entered the wait queues. */
    virtual void onRequestQueued(model::AdapterId id, sim::SimTime now) = 0;

    /** The request left the queues (admitted or dropped). */
    virtual void onRequestDequeued(model::AdapterId id) = 0;

    /**
     * Periodic hook run each scheduling cycle with the adapters of all
     * waiting requests; the baseline retries prefetches here, Chameleon
     * refreshes queued-adapter pinning.
     */
    virtual void onSchedulingCycle(
        const std::vector<model::AdapterId> &queuedAdapters,
        sim::SimTime now) = 0;

    /**
     * Would onSchedulingCycle act on the queued-adapter list right now?
     * When false, the engine passes an empty list instead of collecting
     * the adapters of every waiting request. The default asks for the
     * list every cycle, so a wrapping manager that does not forward
     * this call still receives every list.
     */
    virtual bool needsQueuedAdapters() const { return true; }

    /**
     * Release idle adapter memory until at least `bytes` of device
     * memory are free; true on success. The baseline has no idle
     * adapters, so it succeeds only if memory is already free.
     */
    virtual bool tryFreeMemory(std::int64_t bytes) = 0;

    /**
     * Attach the span recorder under which this manager's engine
     * records (`pid` is the engine's trace process). Default: ignore —
     * the baseline manager emits no events; observation never alters
     * behaviour either way.
     */
    virtual void setTraceRecorder(obs::TraceRecorder *recorder, int pid)
    {
        (void)recorder;
        (void)pid;
    }

    /**
     * Attach the cluster residency listener; `replica` is the engine
     * index this manager reports as. Every manager reports through the
     * notify* helpers below, and an unattached manager behaves
     * identically. Attach before the first request; there is no replay
     * of pre-attach contents. Virtual so wrapping managers can forward
     * the listener to the manager they wrap.
     */
    virtual void setResidencyListener(ResidencyEvents *listener,
                                      int replica)
    {
        residency_ = listener;
        replicaIndex_ = replica;
    }

    /**
     * Admit adapter weights arriving over a peer (replica-to-replica)
     * link instead of the host PCIe link: reserve memory, mark the
     * adapter Loading, and flip it Resident at `readyAt` — the peer
     * transfer's completion time, modelled by the caller. Returns the
     * time the weights become usable, or sim::kTimeNever when the
     * manager declines (no memory without violating its watermark, or
     * no cache at all — the default). Never touches the host link, so
     * host pcie byte counters stay flat for peer-warmed adapters.
     */
    virtual sim::SimTime peerAdmit(model::AdapterId id,
                                   sim::SimTime readyAt, sim::SimTime now)
    {
        (void)id;
        (void)readyAt;
        (void)now;
        return sim::kTimeNever;
    }

    /** Residency checks that needed no transfer (cache/residency hits). */
    virtual std::int64_t hits() const = 0;
    /** Residency checks that triggered or waited on a transfer. */
    virtual std::int64_t misses() const = 0;
    /** Bytes currently held in the idle-adapter cache (0 for baseline). */
    virtual std::int64_t cachedBytes() const = 0;

  protected:
    // Residency-listener notifications (no-ops while unattached; the
    // listener observes only, so attachment never alters behaviour).
    void notifyLoadStart(model::AdapterId id)
    {
        if (residency_ != nullptr)
            residency_->onLoadStart(replicaIndex_, id);
    }
    void notifyLoadComplete(model::AdapterId id)
    {
        if (residency_ != nullptr)
            residency_->onLoadComplete(replicaIndex_, id);
    }
    void notifyEvict(model::AdapterId id)
    {
        if (residency_ != nullptr)
            residency_->onEvict(replicaIndex_, id);
    }
    void notifyAcquire(model::AdapterId id, sim::SimTime now)
    {
        if (residency_ != nullptr)
            residency_->onAcquire(replicaIndex_, id, now);
    }
    void notifyRelease(model::AdapterId id)
    {
        if (residency_ != nullptr)
            residency_->onRelease(replicaIndex_, id);
    }

  private:
    ResidencyEvents *residency_ = nullptr;
    int replicaIndex_ = 0;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_ADAPTER_MANAGER_H
