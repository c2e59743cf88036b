/**
 * @file
 * Paged KV-cache allocator.
 *
 * Models a vLLM/S-LoRA style paged KV pool: per-request token state is
 * stored in fixed-size pages, so allocations round up to page granularity
 * and the pool suffers bounded internal fragmentation. Backed by the
 * GpuMemory accounting so KV growth competes with the adapter cache for
 * idle memory, which is exactly the interaction §4.2.1 manages.
 *
 * The pool keeps no per-request table: each request owns its
 * KvReservation (tokens and pages) and passes it in. Growing within the
 * pages already held only records the new token count; GpuMemory is
 * touched only when a reservation crosses a page boundary. Running
 * token and byte totals keep the pool-wide queries O(1).
 */

#ifndef CHAMELEON_GPU_KV_CACHE_H
#define CHAMELEON_GPU_KV_CACHE_H

#include <cstdint>

#include "gpu/gpu_memory.h"

namespace chameleon::gpu {

/** One request's KV reservation; owned by the request, zero when empty. */
struct KvReservation
{
    /** Tokens recorded (the largest count reserved so far). */
    std::int32_t tokens = 0;
    /** Pages held; covers `tokens`. */
    std::int32_t pages = 0;
};

/** Paged KV allocation state of one engine. */
class KvCache
{
  public:
    /**
     * @param mem backing memory accountant
     * @param bytesPerToken KV bytes per cached token (model dependent)
     * @param pageTokens tokens per page (vLLM default granularity 16)
     */
    KvCache(GpuMemory &mem, std::int64_t bytesPerToken, int pageTokens = 16);

    /** Bytes a reservation of the given token count would occupy. */
    std::int64_t bytesForTokens(std::int64_t tokens) const;

    /**
     * Reserve pages for `tokens` tokens in `res`; false, with `res` and
     * the memory untouched, if memory is unavailable. Re-reserving with a
     * larger count grows the reservation (the serving engine does so when
     * decode crosses a page, so there `tokens` and fragmentationBytes()
     * advance per page, not per token); a smaller count keeps what is
     * held.
     */
    bool tryReserve(KvReservation &res, std::int64_t tokens);

    /** Release a reservation's pages and reset it to empty. */
    void release(KvReservation &res);

    /** Total bytes held by this pool. */
    std::int64_t totalBytes() const { return totalBytes_; }

    /** Bytes lost to page-rounding across live reservations. */
    std::int64_t
    fragmentationBytes() const
    {
        return totalBytes_ - totalTokens_ * bytesPerToken_;
    }

    int pageTokens() const { return pageTokens_; }
    std::int64_t bytesPerToken() const { return bytesPerToken_; }

  private:
    GpuMemory &mem_;
    std::int64_t bytesPerToken_;
    int pageTokens_;
    std::int64_t pageBytes_;
    std::int64_t totalBytes_ = 0;
    std::int64_t totalTokens_ = 0;
};

} // namespace chameleon::gpu

#endif // CHAMELEON_GPU_KV_CACHE_H
