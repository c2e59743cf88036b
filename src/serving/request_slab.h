/**
 * @file
 * Slab allocator for LiveRequest state.
 *
 * An engine creates one LiveRequest per submitted request and hands
 * stable pointers to its scheduler and batches, so per-request
 * unique_ptr allocations used to dominate submit() on million-request
 * traces. The slab allocates fixed-size blocks and bump-allocates
 * within them: one heap allocation per kBlockRequests requests,
 * addresses stable for the engine's lifetime (blocks are never moved
 * or freed until destruction), iteration in allocation order for
 * lookups and stats.
 */

#ifndef CHAMELEON_SERVING_REQUEST_SLAB_H
#define CHAMELEON_SERVING_REQUEST_SLAB_H

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "serving/live_request.h"

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

    /** A fresh default-constructed LiveRequest; pointer stays valid
     * for the slab's lifetime. */
    LiveRequest *
    allocate()
    {
        if (used_ == kBlockRequests || blocks_.empty()) {
            blocks_.push_back(std::make_unique<Block>());
            used_ = 0;
        }
        LiveRequest *r = &(*blocks_.back())[used_++];
        *r = LiveRequest{};
        return r;
    }

    /** Requests allocated so far. */
    std::size_t
    size() const
    {
        return blocks_.empty()
                   ? 0
                   : (blocks_.size() - 1) * kBlockRequests + used_;
    }

    /** Visit every allocated request in allocation order; f returning
     * false stops the walk. */
    template <typename F>
    void
    scan(F &&f)
    {
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            const std::size_t count =
                b + 1 == blocks_.size() ? used_ : kBlockRequests;
            for (std::size_t i = 0; i < count; ++i) {
                if (!f((*blocks_[b])[i]))
                    return;
            }
        }
    }

  private:
    using Block = std::array<LiveRequest, kBlockRequests>;

    std::vector<std::unique_ptr<Block>> blocks_;
    std::size_t used_ = 0;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_REQUEST_SLAB_H
