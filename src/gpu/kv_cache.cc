#include "gpu/kv_cache.h"

#include <limits>

namespace chameleon::gpu {

KvCache::KvCache(GpuMemory &mem, std::int64_t bytesPerToken, int pageTokens)
    : mem_(mem), bytesPerToken_(bytesPerToken), pageTokens_(pageTokens),
      pageBytes_(pageTokens * bytesPerToken)
{
    CHM_CHECK(bytesPerToken > 0, "bytesPerToken must be positive");
    CHM_CHECK(pageTokens > 0, "pageTokens must be positive");
}

std::int64_t
KvCache::bytesForTokens(std::int64_t tokens) const
{
    CHM_CHECK(tokens >= 0, "negative token reservation");
    const std::int64_t pages = (tokens + pageTokens_ - 1) / pageTokens_;
    return pages * pageBytes_;
}

bool
KvCache::tryReserve(KvReservation &res, std::int64_t tokens)
{
    CHM_CHECK(tokens >= 0, "negative token reservation");
    CHM_CHECK(tokens <= std::numeric_limits<std::int32_t>::max(),
              "token reservation exceeds int32");
    if (tokens <= static_cast<std::int64_t>(res.pages) * pageTokens_) {
        // The held pages already cover the tokens; just record the count.
        if (tokens > res.tokens) {
            totalTokens_ += tokens - res.tokens;
            res.tokens = static_cast<std::int32_t>(tokens);
        }
        return true;
    }
    const std::int64_t pages = (tokens + pageTokens_ - 1) / pageTokens_;
    const std::int64_t grow = (pages - res.pages) * pageBytes_;
    if (!mem_.tryAllocKv(grow))
        return false;
    totalBytes_ += grow;
    totalTokens_ += tokens - res.tokens;
    res.tokens = static_cast<std::int32_t>(tokens);
    res.pages = static_cast<std::int32_t>(pages);
    return true;
}

void
KvCache::release(KvReservation &res)
{
    if (res.pages == 0)
        return;
    const std::int64_t bytes = res.pages * pageBytes_;
    mem_.freeKv(bytes);
    totalBytes_ -= bytes;
    totalTokens_ -= res.tokens;
    res = KvReservation{};
}

} // namespace chameleon::gpu
