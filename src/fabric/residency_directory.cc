#include "fabric/residency_directory.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::fabric {

using model::AdapterId;

void
ResidencyDirectory::onLoadStart(int replica, AdapterId id)
{
    AdapterInfo &info = adapters_[id];
    const auto [it, inserted] = info.holders.emplace(replica, Holding{});
    (void)it;
    CHM_CHECK(inserted, "load start for adapter " << id << " on replica "
                            << replica << " which already holds it");
    ++perReplicaEntries_[replica];
}

void
ResidencyDirectory::onLoadComplete(int replica, AdapterId id)
{
    auto ait = adapters_.find(id);
    CHM_CHECK(ait != adapters_.end(),
              "load complete for unknown adapter " << id);
    auto hit = ait->second.holders.find(replica);
    CHM_CHECK(hit != ait->second.holders.end(),
              "load complete for adapter " << id
                                           << " not held by replica "
                                           << replica);
    CHM_CHECK(hit->second.tier == Tier::Loading,
              "load complete for adapter " << id << " on replica "
                                           << replica
                                           << " which is not loading");
    hit->second.tier = Tier::Resident;
}

void
ResidencyDirectory::onEvict(int replica, AdapterId id)
{
    auto ait = adapters_.find(id);
    CHM_CHECK(ait != adapters_.end(), "evict of unknown adapter " << id);
    auto hit = ait->second.holders.find(replica);
    CHM_CHECK(hit != ait->second.holders.end(),
              "evict of adapter " << id << " not held by replica "
                                  << replica);
    CHM_CHECK(hit->second.refcount == 0,
              "evict of adapter " << id << " on replica " << replica
                                  << " with " << hit->second.refcount
                                  << " running references");
    ait->second.holders.erase(hit);
    --perReplicaEntries_[replica];
    // The AdapterInfo stays: heat survives eviction (a re-loaded hot
    // adapter is still hot).
}

void
ResidencyDirectory::onAcquire(int replica, AdapterId id, sim::SimTime now)
{
    auto ait = adapters_.find(id);
    CHM_CHECK(ait != adapters_.end(),
              "acquire of unknown adapter " << id);
    auto hit = ait->second.holders.find(replica);
    CHM_CHECK(hit != ait->second.holders.end(),
              "acquire of adapter " << id << " not held by replica "
                                    << replica);
    ++hit->second.refcount;
    hit->second.lastUse = now;
    ++ait->second.uses;
    ait->second.lastUse = now;
}

void
ResidencyDirectory::onRelease(int replica, AdapterId id)
{
    auto ait = adapters_.find(id);
    CHM_CHECK(ait != adapters_.end(),
              "release of unknown adapter " << id);
    auto hit = ait->second.holders.find(replica);
    CHM_CHECK(hit != ait->second.holders.end(),
              "release of adapter " << id << " not held by replica "
                                    << replica);
    // Refcounts never go negative: a double release dies here before
    // the directory can disagree with the cache (death-tested).
    CHM_CHECK(hit->second.refcount > 0,
              "release without acquire for adapter "
                  << id << " on replica " << replica);
    --hit->second.refcount;
}

bool
ResidencyDirectory::isResident(AdapterId id, std::size_t replica) const
{
    const Holding *h = holding(id, replica);
    return h != nullptr && h->tier == Tier::Resident;
}

const ResidencyDirectory::Holding *
ResidencyDirectory::holding(AdapterId id, std::size_t replica) const
{
    auto ait = adapters_.find(id);
    if (ait == adapters_.end())
        return nullptr;
    auto hit = ait->second.holders.find(static_cast<int>(replica));
    return hit == ait->second.holders.end() ? nullptr : &hit->second;
}

void
ResidencyDirectory::residentReplicas(AdapterId id,
                                     std::vector<std::size_t> *out) const
{
    out->clear();
    auto ait = adapters_.find(id);
    if (ait == adapters_.end())
        return;
    for (const auto &[replica, h] : ait->second.holders) {
        if (h.tier == Tier::Resident)
            out->push_back(static_cast<std::size_t>(replica));
    }
}

bool
ResidencyDirectory::holds(AdapterId id, std::size_t replica) const
{
    return holding(id, replica) != nullptr;
}

std::size_t
ResidencyDirectory::replicaEntryCount(std::size_t replica) const
{
    auto it = perReplicaEntries_.find(static_cast<int>(replica));
    if (it == perReplicaEntries_.end())
        return 0;
    CHM_CHECK(it->second >= 0, "negative entry count for replica "
                                   << replica);
    return static_cast<std::size_t>(it->second);
}

namespace {

/** One adapter's heat, copied out of the map for one query. */
struct HeatKey
{
    std::int64_t uses;
    sim::SimTime lastUse;
    AdapterId id;
};

/** Heat order (uses desc, last-use desc, id asc): a strict total order,
 * so any sort of the same keys yields the same list. */
bool
hotterFirst(const HeatKey &a, const HeatKey &b)
{
    if (a.uses != b.uses)
        return a.uses > b.uses;
    if (a.lastUse != b.lastUse)
        return a.lastUse > b.lastUse;
    return a.id < b.id;
}

/** The ids of the first k keys in heat order, in that order. */
std::vector<AdapterId>
topK(std::vector<HeatKey> keys, std::size_t k)
{
    const std::size_t m = std::min(k, keys.size());
    std::partial_sort(keys.begin(),
                      keys.begin() + static_cast<std::ptrdiff_t>(m),
                      keys.end(), hotterFirst);
    std::vector<AdapterId> ids;
    ids.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
        ids.push_back(keys[i].id);
    return ids;
}

} // namespace

std::vector<AdapterId>
ResidencyDirectory::hottest(std::size_t k) const
{
    std::vector<HeatKey> keys;
    for (const auto &[id, info] : adapters_) {
        if (info.uses > 0)
            keys.push_back({info.uses, info.lastUse, id});
    }
    return topK(std::move(keys), k);
}

std::vector<AdapterId>
ResidencyDirectory::hottestIdleOn(std::size_t replica,
                                  std::size_t k) const
{
    std::vector<HeatKey> keys;
    for (const auto &[id, info] : adapters_) {
        auto hit = info.holders.find(static_cast<int>(replica));
        if (hit == info.holders.end())
            continue;
        if (hit->second.tier == Tier::Resident &&
            hit->second.refcount == 0) {
            keys.push_back({info.uses, info.lastUse, id});
        }
    }
    return topK(std::move(keys), k);
}

std::size_t
ResidencyDirectory::totalEntries() const
{
    std::size_t total = 0;
    for (const auto &[id, info] : adapters_)
        total += info.holders.size();
    return total;
}

} // namespace chameleon::fabric
