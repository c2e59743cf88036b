#include "fabric/cache_fabric.h"

#include <algorithm>

#include "obs/trace_recorder.h"
#include "simkit/check.h"

namespace chameleon::fabric {

using model::AdapterId;

const sim::NameTable<MigrationPolicy> &
migrationPolicyTable()
{
    static const sim::NameTable<MigrationPolicy> table{
        {MigrationPolicy::Off, "off"},
        {MigrationPolicy::ScaleUp, "scale-up"},
        {MigrationPolicy::Drain, "drain"},
        {MigrationPolicy::Remap, "remap"},
        {MigrationPolicy::All, "all"}};
    return table;
}

CacheFabric::CacheFabric(sim::Simulator &simulator,
                         const model::AdapterPool &pool,
                         FabricConfig config)
    : sim_(simulator), pool_(pool), config_(config),
      topology_(simulator, config.topology)
{
    CHM_CHECK(config_.topK >= 1, "fabric topK must be >= 1");
}

void
CacheFabric::attachReplica(std::size_t index,
                           serving::AdapterManager &manager)
{
    const auto [it, inserted] = managers_.emplace(index, &manager);
    (void)it;
    CHM_CHECK(inserted,
              "replica " << index << " attached to the fabric twice");
    manager.setResidencyListener(&directory_, static_cast<int>(index));
}

bool
CacheFabric::triggers(MigrationPolicy trigger) const
{
    return config_.migration == trigger ||
           config_.migration == MigrationPolicy::All;
}

bool
CacheFabric::pickSource(AdapterId id, std::size_t dst,
                        std::size_t *src) const
{
    std::vector<std::size_t> holders;
    directory_.residentReplicas(id, &holders);
    for (const std::size_t holder : holders) {
        if (holder == dst)
            continue;
        if (managers_.find(holder) == managers_.end())
            continue; // not an attached endpoint (shouldn't happen)
        *src = holder;
        return true; // holders ascend: lowest index, deterministic
    }
    return false;
}

bool
CacheFabric::pickDestination(AdapterId id,
                             const std::vector<std::size_t> &active,
                             std::size_t exclude, std::size_t *dst) const
{
    bool found = false;
    std::size_t best = 0;
    std::size_t bestEntries = 0;
    for (const std::size_t replica : active) {
        if (replica == exclude)
            continue;
        if (managers_.find(replica) == managers_.end())
            continue;
        if (directory_.holds(id, replica))
            continue; // already there (or inbound): nothing to move
        const std::size_t entries = directory_.replicaEntryCount(replica);
        if (!found || entries < bestEntries) {
            found = true;
            best = replica;
            bestEntries = entries;
        }
    }
    if (found)
        *dst = best;
    return found;
}

bool
CacheFabric::migrate(AdapterId id, std::size_t src, std::size_t dst,
                     sim::SimTime now)
{
    CHM_CHECK(src != dst, "migration endpoints must differ");
    auto it = managers_.find(dst);
    CHM_CHECK(it != managers_.end(),
              "migration to unattached replica " << dst);
    if (directory_.holds(id, dst))
        return false; // resident or already inbound
    const std::int64_t bytes = pool_.spec(id).bytes;
    // Quote the peer link first, then let the destination decide; only
    // an accepted admit reserves the link, so a declined migration
    // leaves the topology untouched. Nothing runs between quote and
    // reserve, hence the reservation lands at the quoted time.
    const sim::SimTime eta = topology_.earliestCompletion(src, dst, bytes);
    const sim::SimTime admitted = it->second->peerAdmit(id, eta, now);
    if (admitted == sim::kTimeNever)
        return false; // destination under memory pressure
    topology_.transfer(src, dst, bytes);
    ++migrations_;
    if (trace_ != nullptr) {
        trace_->complete(obs::kClusterPid, obs::Lane::Control, "migrate",
                         now, admitted - now,
                         {{"adapter", id},
                          {"src", src},
                          {"dst", dst},
                          {"bytes", bytes}});
    }
    return true;
}

void
CacheFabric::onScaleUp(std::size_t index, sim::SimTime now)
{
    if (!triggers(MigrationPolicy::ScaleUp))
        return;
    // Warm the booting replica with the cluster's hottest adapters;
    // peer transfers overlap the cold-start boot window, so by the
    // time the replica is routable its cache already holds them.
    for (const AdapterId id : directory_.hottest(config_.topK)) {
        std::size_t src;
        if (pickSource(id, index, &src))
            migrate(id, src, index, now);
    }
}

void
CacheFabric::onDrain(std::size_t index,
                     const std::vector<std::size_t> &active,
                     sim::SimTime now)
{
    if (!triggers(MigrationPolicy::Drain))
        return;
    // The drained replica's warm cache would otherwise only survive a
    // later reactivation; push its hottest idle entries to the active
    // replica least likely to hold them already.
    for (const AdapterId id :
         directory_.hottestIdleOn(index, config_.topK)) {
        std::size_t dst;
        if (pickDestination(id, active, index, &dst))
            migrate(id, index, dst, now);
    }
}

void
CacheFabric::onRemap(const std::vector<std::size_t> &active,
                     sim::SimTime now)
{
    if (!triggers(MigrationPolicy::Remap))
        return;
    if (active.empty())
        return;
    // After a routable-set change the hash ring re-homes adapters; make
    // sure each globally hot adapter keeps at least one *active*
    // holder (its residency may be stranded on drained replicas).
    for (const AdapterId id : directory_.hottest(config_.topK)) {
        bool activeHolder = false;
        for (const std::size_t replica : active) {
            if (directory_.holds(id, replica)) {
                activeHolder = true;
                break;
            }
        }
        if (activeHolder)
            continue;
        std::size_t dst;
        constexpr std::size_t kNoExclude = static_cast<std::size_t>(-1);
        if (!pickDestination(id, active, kNoExclude, &dst))
            continue;
        std::size_t src;
        if (pickSource(id, dst, &src))
            migrate(id, src, dst, now);
    }
}

} // namespace chameleon::fabric
