#include "routing/router.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/trace_recorder.h"
#include "routing/consistent_hash.h"
#include "simkit/check.h"
#include "simkit/rng.h"
#include "simkit/simulator.h"

namespace chameleon::routing {

const sim::NameTable<RouterPolicy> &
routerPolicyTable()
{
    static const sim::NameTable<RouterPolicy> table(
        {{RouterPolicy::RoundRobin, "rr"},
         {RouterPolicy::JoinShortestQueue, "jsq"},
         {RouterPolicy::PowerOfTwoChoices, "p2c"},
         {RouterPolicy::AdapterAffinity, "affinity"},
         {RouterPolicy::AdapterAffinityDirectory, "affinity-dir"}},
        {{RouterPolicy::RoundRobin, "round-robin"},
         {RouterPolicy::AdapterAffinityDirectory, "affinity-cache"}});
    return table;
}

namespace {

/**
 * Capacity-normalised queue depth: outstanding requests divided by the
 * replica's service weight, so a queued request on a half-speed
 * replica counts like two on a full-speed one. With homogeneous
 * weights (exactly 1.0) this is the plain outstanding count and every
 * comparison below reduces to the unweighted policy.
 */
double
weightedLoad(const ClusterView &view, const std::vector<double> &weights,
             std::size_t i)
{
    return static_cast<double>(view.outstanding(i)) / weights[i];
}

/**
 * One dispatch decision's flattened load view. Outstanding counts and
 * weights are read once per replica into a reused buffer, so policies
 * that compare loads several times per decision (the affinity router's
 * resident holders + spill walk + fallback) stop re-querying the view.
 * Nothing dispatches between the snapshot and the decision, and every
 * entry is computed with the exact expression the per-call path used,
 * so decisions are bit-identical.
 */
class LoadSnapshot
{
  public:
    void
    refresh(const ClusterView &view)
    {
        const std::vector<double> &weights = view.serviceWeights();
        const std::size_t n = weights.size();
        loads_.resize(n);
        totalOutstanding_ = 0;
        totalWeight_ = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t out = view.outstanding(i);
            totalOutstanding_ += out;
            totalWeight_ += weights[i];
            loads_[i] = static_cast<double>(out) / weights[i];
        }
    }

    double load(std::size_t i) const { return loads_[i]; }

    /** Least-loaded replica; ties to the lowest index (deterministic). */
    std::size_t
    leastLoaded() const
    {
        std::size_t best = 0;
        double bestLoad = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < loads_.size(); ++i) {
            if (loads_[i] < bestLoad) {
                best = i;
                bestLoad = loads_[i];
            }
        }
        return best;
    }

    /** Weighted cluster-mean load (spill-bound numerator/denominator). */
    double
    meanLoad() const
    {
        return static_cast<double>(totalOutstanding_) / totalWeight_;
    }

  private:
    std::vector<double> loads_;
    std::int64_t totalOutstanding_ = 0;
    double totalWeight_ = 0.0;
};

class RoundRobinRouter final : public Router
{
  public:
    const char *name() const override { return "rr"; }

    std::size_t
    route(const workload::Request &, const ClusterView &view) override
    {
        const std::size_t n = view.replicaCount();
        CHM_CHECK(n > 0, "routing with no active replicas");
        const std::size_t pick = next_ % n;
        next_ = (pick + 1) % n;
        return pick;
    }

    void
    onReplicaCountChanged(std::size_t active) override
    {
        if (active > 0)
            next_ %= active;
    }

  private:
    std::size_t next_ = 0;
};

class JoinShortestQueueRouter final : public Router
{
  public:
    const char *name() const override { return "jsq"; }

    std::size_t
    route(const workload::Request &, const ClusterView &view) override
    {
        CHM_CHECK(view.replicaCount() > 0, "routing with no active replicas");
        snapshot_.refresh(view);
        return snapshot_.leastLoaded();
    }

  private:
    LoadSnapshot snapshot_; // reused across decisions (no per-dispatch allocs)
};

class PowerOfTwoChoicesRouter final : public Router
{
  public:
    // The seed is remixed so the sampling stream is decorrelated from
    // other components seeded with the same user-facing value (the
    // trace generator feeds sim::Rng the raw seed).
    explicit PowerOfTwoChoicesRouter(std::uint64_t seed)
        : rng_(sim::mix64(seed ^ 0x726F757465720000ull)) // "router"
    {
    }

    const char *name() const override { return "p2c"; }

    std::size_t
    route(const workload::Request &, const ClusterView &view) override
    {
        const std::size_t n = view.replicaCount();
        CHM_CHECK(n > 0, "routing with no active replicas");
        if (n == 1)
            return 0;
        std::size_t a = rng_.nextBelow(n);
        std::size_t b = rng_.nextBelow(n - 1);
        if (b >= a)
            ++b; // second draw over the remaining n-1 replicas
        // Two probes only — the whole point of p2c is O(1) decisions,
        // so no full snapshot; the weight vector is the cached one.
        const std::vector<double> &weights = view.serviceWeights();
        const double loadA = weightedLoad(view, weights, a);
        const double loadB = weightedLoad(view, weights, b);
        if (loadA == loadB)
            return std::min(a, b);
        return loadA < loadB ? a : b;
    }

  private:
    sim::Rng rng_;
};

/**
 * Load-aware spillover: the affinity owner is rejected when its
 * capacity-normalised queue exceeds the cluster-mean queue plus this
 * margin, and the request walks the ring's preference list instead
 * (bounded-load consistent hashing, cf. Mirrokni et al.). The bound
 * trades cache locality against queue imbalance: a loose one
 * approaches pure hashing (max locality, worst tail), a tight one JSQ
 * (min locality).
 */
constexpr double kSpillMargin = 3.0;

class AdapterAffinityRouter final : public Router
{
  public:
    /** `cacheAware`: before the hash ring, prefer the least-loaded
     * replica holding the adapter (one residency-directory lookup). */
    explicit AdapterAffinityRouter(bool cacheAware) : cacheAware_(cacheAware)
    {
    }

    const char *
    name() const override
    {
        return cacheAware_ ? "affinity-dir" : "affinity";
    }

    std::size_t
    route(const workload::Request &request,
          const ClusterView &view) override
    {
        const std::size_t n = view.replicaCount();
        CHM_CHECK(n > 0, "routing with no active replicas");
        if (ringDirty_ || ring_.replicaCount() != n)
            syncRing(view, n);
        snapshot_.refresh(view);
        // Base-model requests have no affinity; balance them.
        if (request.adapter == model::kNoAdapter)
            return snapshot_.leastLoaded();

        const double limit = spillLimit();
        if (cacheAware_) {
            // True cache-hit routing: a replica that already holds the
            // adapter serves it with zero loading cost even if the hash
            // owner differs (residency left over from spillover, a ring
            // resize or a migration). One directory lookup yields the
            // holders; pick the least loaded under the spill bound.
            view.residentReplicas(request.adapter, &holders_);
            std::size_t best = n;
            double bestLoad = std::numeric_limits<double>::infinity();
            for (const std::size_t i : holders_) {
                if (i >= n)
                    continue; // stale view index: never dispatch to it
                const double load = snapshot_.load(i);
                if (load < bestLoad) {
                    best = i;
                    bestLoad = load;
                }
            }
            if (best < n && bestLoad <= limit) {
                if (trace_ != nullptr) {
                    trace_->instant(obs::kClusterPid,
                                    obs::Lane::Control,
                                    "route_dir_hit", clock_->now(),
                                    {{"adapter", request.adapter},
                                     {"replica", best}});
                }
                return best;
            }
        }
        // Hash path: the owner serves unless overloaded (the common
        // case — avoid materialising the preference list for it).
        const auto key = static_cast<std::uint64_t>(request.adapter);
        const std::size_t owner = ring_.owner(key);
        if (snapshot_.load(owner) <= limit)
            return owner;
        // Spillover: walk the owner's ring successors.
        const auto prefs = ring_.preferenceList(key, n);
        for (const std::size_t replica : prefs) {
            if (snapshot_.load(replica) <= limit) {
                if (trace_ != nullptr) {
                    trace_->instant(obs::kClusterPid,
                                    obs::Lane::Control, "route_spill",
                                    clock_->now(),
                                    {{"adapter", request.adapter},
                                     {"owner", owner},
                                     {"replica", replica}});
                }
                return replica;
            }
        }
        // Everything is overloaded; degrade to least-loaded.
        const std::size_t fallback = snapshot_.leastLoaded();
        if (trace_ != nullptr) {
            trace_->instant(obs::kClusterPid, obs::Lane::Control,
                            "route_spill", clock_->now(),
                            {{"adapter", request.adapter},
                             {"owner", owner},
                             {"replica", fallback}});
        }
        return fallback;
    }

    void
    onReplicaCountChanged(std::size_t active) override
    {
        // The ring rebuild needs the new replicas' service weights,
        // which only the ClusterView carries; defer to the next route.
        (void)active;
        ringDirty_ = true;
    }

  private:
    /**
     * Rebuild the ring over the active set, each replica's
     * virtual-node share scaled by its service weight so faster
     * replicas own proportionally more adapters. Unchanged replicas
     * keep their exact ring points (resizeWeighted is incremental).
     */
    void
    syncRing(const ClusterView &view, std::size_t n)
    {
        (void)n;
        ring_.resizeWeighted(view.serviceWeights());
        ringDirty_ = false;
    }

    /**
     * Bounded-load spill threshold in capacity-normalised queue depth:
     * the weighted cluster-mean load (total outstanding over total
     * service weight) plus kSpillMargin. With homogeneous weights this
     * is exactly the unweighted mean-based bound.
     */
    double
    spillLimit() const
    {
        return snapshot_.meanLoad() + kSpillMargin;
    }

    bool cacheAware_;
    ConsistentHashRing ring_;
    bool ringDirty_ = false;
    LoadSnapshot snapshot_; // reused across decisions
    std::vector<std::size_t> holders_; // directory-lookup scratch
};

} // namespace

std::unique_ptr<Router>
makeRouter(RouterPolicy policy, const RouterConfig &config)
{
    switch (policy) {
      case RouterPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>();
      case RouterPolicy::JoinShortestQueue:
        return std::make_unique<JoinShortestQueueRouter>();
      case RouterPolicy::PowerOfTwoChoices:
        return std::make_unique<PowerOfTwoChoicesRouter>(config.seed);
      case RouterPolicy::AdapterAffinity:
        return std::make_unique<AdapterAffinityRouter>(
            /*cacheAware=*/false);
      case RouterPolicy::AdapterAffinityDirectory:
        return std::make_unique<AdapterAffinityRouter>(
            /*cacheAware=*/true);
    }
    CHM_PANIC("unknown router policy");
}

} // namespace chameleon::routing
