/**
 * @file
 * Cluster-wide adapter residency directory (ROADMAP open item 4).
 *
 * One map, adapter -> {replica, tier, refcount, last-use}, kept
 * coherent by the adapter managers' residency callbacks
 * (serving::ResidencyEvents): every load start/complete, eviction,
 * acquire, and release on any replica lands here at the instant it
 * happens, so the directory never disagrees with the per-replica cache
 * contents (the fabric test suite churns exactly this invariant). Two
 * consumers read it:
 *
 *  - the `affinity-dir` router, which answers "who holds this
 *    adapter" with one directory lookup per decision;
 *  - the migration planner (CacheFabric), which needs "who holds this
 *    adapter" and "what is hot" to move weights replica-to-replica.
 *
 * Heat is directory-global: per adapter, a monotone use count plus the
 * last acquire time. hottest() orders by (uses desc, last-use desc, id
 * asc) — fully deterministic, no decayed floats, so migration plans
 * are reproducible across runs and thread counts.
 *
 * All containers are ordered maps: iteration order is part of the
 * deterministic event-stream contract.
 */

#ifndef CHAMELEON_FABRIC_RESIDENCY_DIRECTORY_H
#define CHAMELEON_FABRIC_RESIDENCY_DIRECTORY_H

#include <cstdint>
#include <map>
#include <vector>

#include "model/adapter.h"
#include "serving/adapter_manager.h"
#include "simkit/time.h"

namespace chameleon::fabric {

/** Residency tier of one (adapter, replica) holding. */
enum class Tier {
    Loading,  ///< Transfer in flight (host or peer).
    Resident, ///< Usable now.
};

/** Adapter -> per-replica holdings + global heat, callback-coherent. */
class ResidencyDirectory : public serving::ResidencyEvents
{
  public:
    /** One replica's holding of one adapter. */
    struct Holding
    {
        Tier tier = Tier::Loading;
        /** Mirror of the cache manager's running refcount. */
        int refcount = 0;
        /** Last acquire on this replica (0 = never acquired). */
        sim::SimTime lastUse = 0;
    };

    // --- serving::ResidencyEvents (the coherence feed) ---
    void onLoadStart(int replica, model::AdapterId id) override;
    void onLoadComplete(int replica, model::AdapterId id) override;
    void onEvict(int replica, model::AdapterId id) override;
    void onAcquire(int replica, model::AdapterId id,
                   sim::SimTime now) override;
    void onRelease(int replica, model::AdapterId id) override;

    // --- lookups (all deterministic) ---
    /** Is the adapter Resident on `replica` right now? */
    bool isResident(model::AdapterId id, std::size_t replica) const;

    /** The holding, or nullptr when the replica holds nothing. */
    const Holding *holding(model::AdapterId id, std::size_t replica) const;

    /**
     * Engine indices of every replica holding `id` Resident, ascending,
     * into `out` (cleared first; reused buffer — no per-lookup allocs
     * on the routing path).
     */
    void residentReplicas(model::AdapterId id,
                          std::vector<std::size_t> *out) const;

    /** Does `replica` hold `id` at all (Loading counts)? */
    bool holds(model::AdapterId id, std::size_t replica) const;

    /** Holdings (Loading or Resident) currently on `replica`. */
    std::size_t replicaEntryCount(std::size_t replica) const;

    /**
     * The k globally hottest adapters ever acquired, ordered by
     * (uses desc, last-use desc, id asc). One pass over the adapters
     * and a partial sort of the top k: O(n log k), a linear scan at
     * the fabric's small k.
     */
    std::vector<model::AdapterId> hottest(std::size_t k) const;

    /** The k hottest adapters currently Resident on `replica` with no
     * running references (idle cache contents — the movable set). */
    std::vector<model::AdapterId> hottestIdleOn(std::size_t replica,
                                                std::size_t k) const;

    /** Total (adapter, replica) holdings across the cluster. */
    std::size_t totalEntries() const;

  private:
    struct AdapterInfo
    {
        /** replica -> holding; ordered so iteration is deterministic. */
        std::map<int, Holding> holders;
        /** Lifetime acquire count (global heat). */
        std::int64_t uses = 0;
        /** Last acquire anywhere (heat tiebreaker). */
        sim::SimTime lastUse = 0;
    };

    std::map<model::AdapterId, AdapterInfo> adapters_;
    std::map<int, std::int64_t> perReplicaEntries_;
};

} // namespace chameleon::fabric

#endif // CHAMELEON_FABRIC_RESIDENCY_DIRECTORY_H
