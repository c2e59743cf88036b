/**
 * @file
 * Baseline adapter management: the S-LoRA policy.
 *
 * Keeps the base model resident and fetches adapters on demand; issues
 * asynchronous prefetches for the adapters of queued requests; discards
 * an adapter from GPU memory as soon as no running or queued request
 * references it (Fig. 1, §2). No idle caching — the behaviour Chameleon
 * argues against.
 */

#ifndef CHAMELEON_SERVING_SLORA_ADAPTER_MANAGER_H
#define CHAMELEON_SERVING_SLORA_ADAPTER_MANAGER_H

#include <vector>

#include "gpu/gpu_memory.h"
#include "gpu/pcie_link.h"
#include "serving/adapter_manager.h"

namespace chameleon::serving {

/** Fetch-on-demand + queue-prefetch + discard-on-idle. */
class SLoraAdapterManager : public AdapterManager
{
  public:
    /**
     * @param pool adapter catalogue
     * @param mem engine memory accountant
     * @param link host->GPU transfer queue
     * @param prefetchEnabled issue async prefetches for queued requests
     */
    SLoraAdapterManager(const model::AdapterPool &pool, gpu::GpuMemory &mem,
                        gpu::PcieLink &link, bool prefetchEnabled = true);

    const char *name() const override { return "slora"; }

    bool isResident(model::AdapterId id) const override;
    sim::SimTime acquire(model::AdapterId id, sim::SimTime now) override;
    void release(model::AdapterId id) override;
    bool canMakeResident(model::AdapterId id) const override;
    void onRequestQueued(model::AdapterId id, sim::SimTime now) override;
    void onRequestDequeued(model::AdapterId id) override;
    void onSchedulingCycle(const std::vector<model::AdapterId> &queued,
                           sim::SimTime now) override;
    /** The retry pass only acts on a queued adapter that is neither
     * resident nor loading. */
    bool
    needsQueuedAdapters() const override
    {
        return prefetchEnabled_ && queuedNotResident_ > 0;
    }
    bool tryFreeMemory(std::int64_t bytes) override;

    /** Adapters with a queued reference that are neither resident nor
     * loading. O(1). */
    std::int64_t queuedNotResident() const { return queuedNotResident_; }

    std::int64_t hits() const override { return hits_; }
    std::int64_t misses() const override { return misses_; }
    std::int64_t cachedBytes() const override { return 0; }

  private:
    enum class State { NotResident, Loading, Resident };

    struct Entry
    {
        State state = State::NotResident;
        int runningRc = 0;
        int queuedRc = 0;
        sim::SimTime readyAt = 0;
    };

    /** `id` as an index into entries_; range-checked. */
    std::size_t index(model::AdapterId id) const;
    Entry &entry(model::AdapterId id);
    const Entry &entry(model::AdapterId id) const;
    /** Start a transfer if memory allows; returns completion or Never. */
    sim::SimTime startLoad(model::AdapterId id, Entry &e, bool prefetch);
    /** Free the adapter when wholly unreferenced. */
    void maybeDiscard(model::AdapterId id, Entry &e);
    /** What `e` adds to queuedNotResident_ (1 if queued and absent). */
    static int queuedNotResidentShare(const Entry &e);

    const model::AdapterPool &pool_;
    gpu::GpuMemory &mem_;
    gpu::PcieLink &link_;
    bool prefetchEnabled_;
    /** Per-adapter state, indexed by adapter id (ids are dense). */
    std::vector<Entry> entries_;
    /** Entries with queuedRc > 0 in state NotResident. */
    std::int64_t queuedNotResident_ = 0;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_SLORA_ADAPTER_MANAGER_H
