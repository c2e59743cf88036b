/**
 * @file
 * GPU memory accounting.
 *
 * Tracks the memory regions of Fig. 1/6 of the paper: base-model weights
 * (static), activation workspace (static reserve), KV-cache pages, LoRA
 * adapters in use by running/queued requests, and the Chameleon adapter
 * cache occupying otherwise-idle memory. The invariant maintained is
 *     weights + workspace + kv + adaptersInUse + adapterCache + free
 *         == capacity
 * with every term non-negative.
 */

#ifndef CHAMELEON_GPU_GPU_MEMORY_H
#define CHAMELEON_GPU_GPU_MEMORY_H

#include <cstdint>

#include "simkit/check.h"

namespace chameleon::gpu {

/** Byte-level accounting of one engine's device memory. */
class GpuMemory
{
  public:
    /**
     * @param capacity total device bytes
     * @param weights resident base-model bytes (per-GPU shard under TP)
     * @param workspace activation/scratch reserve
     */
    GpuMemory(std::int64_t capacity, std::int64_t weights,
              std::int64_t workspace);

    std::int64_t capacity() const { return capacity_; }
    std::int64_t weightsBytes() const { return weights_; }
    std::int64_t kvBytes() const { return kv_; }
    std::int64_t adapterInUseBytes() const { return adapterInUse_; }
    std::int64_t adapterCacheBytes() const { return adapterCache_; }

    /** Unallocated bytes. */
    std::int64_t freeBytes() const;

    /**
     * Idle memory in the paper's sense (§3.2): bytes neither pinned by
     * weights/workspace nor used by request state; the adapter cache
     * plus free memory.
     */
    std::int64_t idleBytes() const { return freeBytes() + adapterCache_; }

    /** Try to allocate KV bytes; false without side effects if no room. */
    bool tryAllocKv(std::int64_t bytes);
    /** Release KV bytes. */
    void freeKv(std::int64_t bytes);

    /** Account an adapter becoming active (loaded for running requests). */
    bool tryAllocAdapterInUse(std::int64_t bytes);
    void freeAdapterInUse(std::int64_t bytes);

    /** Move bytes between the in-use and cache adapter accounts. */
    void moveInUseToCache(std::int64_t bytes);
    void moveCacheToInUse(std::int64_t bytes);

    /** Grow/shrink the adapter cache account against free memory. */
    bool tryAllocAdapterCache(std::int64_t bytes);
    void freeAdapterCache(std::int64_t bytes);

  private:
    std::int64_t capacity_;
    std::int64_t weights_;
    std::int64_t workspace_;
    std::int64_t kv_ = 0;
    std::int64_t adapterInUse_ = 0;
    std::int64_t adapterCache_ = 0;
};

} // namespace chameleon::gpu

#endif // CHAMELEON_GPU_GPU_MEMORY_H
