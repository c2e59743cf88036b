/**
 * @file
 * Slab allocator for LiveRequest state.
 *
 * An engine creates one LiveRequest per arriving request and hands
 * stable pointers to its scheduler and batches, so per-request
 * unique_ptr allocations used to dominate submit() on million-request
 * traces. The slab allocates fixed-size blocks and bump-allocates
 * within them: one heap allocation per kBlockRequests slots. A slot's
 * address is stable while its request is live; release() returns it to
 * a free list that the next allocate() reuses, so the slab grows with
 * the peak of requests in flight, not with the requests served. Blocks
 * are never moved or freed until destruction.
 *
 * Under AddressSanitizer a free slot is poisoned, so a component that
 * keeps a pointer past the request's release faults at the stale read.
 */

#ifndef CHAMELEON_SERVING_REQUEST_SLAB_H
#define CHAMELEON_SERVING_REQUEST_SLAB_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "serving/live_request.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CHM_SLAB_POISON(p) ASAN_POISON_MEMORY_REGION((p), sizeof(*(p)))
#define CHM_SLAB_UNPOISON(p) ASAN_UNPOISON_MEMORY_REGION((p), sizeof(*(p)))
#else
#define CHM_SLAB_POISON(p) ((void)(p))
#define CHM_SLAB_UNPOISON(p) ((void)(p))
#endif

namespace chameleon::serving {

// kBlockRequests below sizes a block for 176-byte requests.
static_assert(sizeof(LiveRequest) <= 176,
              "LiveRequest outgrew the slab's 44 KiB block budget");

class RequestSlab
{
  public:
    /**
     * Requests per block: 44 KiB blocks at sizeof(LiveRequest) == 176,
     * below glibc's default 128 KiB mmap threshold, and small enough
     * that a replica serving a few hundred requests leaves little of
     * its last block unused.
     */
    static constexpr std::size_t kBlockRequests = 256;

    RequestSlab() = default;
    RequestSlab(const RequestSlab &) = delete;
    RequestSlab &operator=(const RequestSlab &) = delete;

    ~RequestSlab()
    {
        // The blocks' destructors touch every slot.
        for (LiveRequest *r : free_)
            CHM_SLAB_UNPOISON(r);
    }

    /** A fresh default-constructed LiveRequest; the pointer stays valid
     * until release(). */
    LiveRequest *
    allocate()
    {
        LiveRequest *r = nullptr;
        if (!free_.empty()) {
            r = free_.back();
            free_.pop_back();
            CHM_SLAB_UNPOISON(r);
        } else {
            if (used_ == kBlockRequests || blocks_.empty()) {
                blocks_.push_back(std::make_unique<Block>());
                used_ = 0;
            }
            r = &(*blocks_.back())[used_++];
        }
        *r = LiveRequest{};
        return r;
    }

    /** Return a finished request's slot; `r` must not be used again. */
    void
    release(LiveRequest *r)
    {
        free_.push_back(r);
        CHM_SLAB_POISON(r);
    }

    /** Slots ever carved from the blocks: the peak of live requests. */
    std::size_t
    slots() const
    {
        return blocks_.empty()
                   ? 0
                   : (blocks_.size() - 1) * kBlockRequests + used_;
    }

    /** Visit every live request in slot order; f returning false stops
     * the walk. O(n log n) in the free slots, for tests. */
    template <typename F>
    void
    scan(F &&f)
    {
        std::vector<const LiveRequest *> freed(free_.begin(), free_.end());
        std::sort(freed.begin(), freed.end(), std::less<>{});
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            const std::size_t count =
                b + 1 == blocks_.size() ? used_ : kBlockRequests;
            for (std::size_t i = 0; i < count; ++i) {
                LiveRequest &r = (*blocks_[b])[i];
                if (std::binary_search(freed.begin(), freed.end(), &r,
                                       std::less<>{}))
                    continue;
                if (!f(r))
                    return;
            }
        }
    }

  private:
    using Block = std::array<LiveRequest, kBlockRequests>;

    std::vector<std::unique_ptr<Block>> blocks_;
    std::size_t used_ = 0;
    /** Released slots, reused last-in first-out. */
    std::vector<LiveRequest *> free_;
};

} // namespace chameleon::serving

#undef CHM_SLAB_POISON
#undef CHM_SLAB_UNPOISON

#endif // CHAMELEON_SERVING_REQUEST_SLAB_H
