/**
 * @file
 * Cluster routing: pluggable global dispatch policies (§4.4 extended).
 *
 * The paper's data-parallel evaluation uses a global round-robin/JSQ
 * dispatcher over replicas with fully replicated adapter caches. This
 * subsystem generalises that into a `Router` interface consulted once
 * per arriving request. Policies only observe the cluster through the
 * read-only `ClusterView`, so they are testable without engines and
 * reusable by any dispatcher.
 *
 * Policies:
 *  - RoundRobin: cycle through active replicas.
 *  - JoinShortestQueue: fewest outstanding requests; ties broken
 *    deterministically by lowest replica index.
 *  - PowerOfTwoChoices: sample two distinct replicas from a seeded
 *    stream, take the less loaded one (Mitzenmacher); near-JSQ balance
 *    at O(1) cost and without herd behaviour.
 *  - AdapterAffinity: consistent hashing over adapter ids with
 *    load-aware spillover, optionally cache-aware (prefer replicas
 *    whose adapter manager already holds the request's adapter, as the
 *    cluster residency directory reports it). Turns N replicated
 *    caches into an effectively partitioned cache and eliminates
 *    repeated PCIe loads of the same hot adapter on every replica.
 *
 * All load-comparing policies are capacity-aware: queue depths are
 * divided by ClusterView::serviceWeight before comparison, and the
 * affinity ring gives each replica a virtual-node share proportional
 * to its weight, so a heterogeneous fleet (mixed A40/A100 replicas)
 * places work where the hardware can absorb it. With the default
 * weight of 1.0 everywhere, every decision is identical to the
 * unweighted policy.
 */

#ifndef CHAMELEON_ROUTING_ROUTER_H
#define CHAMELEON_ROUTING_ROUTER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/adapter.h"
#include "simkit/name_table.h"
#include "workload/request.h"

namespace chameleon::obs {
class TraceRecorder;
}
namespace chameleon::sim {
class Simulator;
}

namespace chameleon::routing {

/** Read-only view of the dispatchable replicas, indexed [0, count). */
class ClusterView
{
  public:
    virtual ~ClusterView() = default;

    /** Number of replicas eligible for dispatch (the active set). */
    virtual std::size_t replicaCount() const = 0;

    /** Outstanding (submitted - finished) requests on replica i. */
    virtual std::int64_t outstanding(std::size_t i) const = 0;

    /** Is the adapter resident in replica i's cache right now? */
    virtual bool adapterResident(std::size_t i,
                                 model::AdapterId id) const = 0;

    /**
     * View indices of every replica whose cache holds `id` resident,
     * ascending, into `out` (cleared first). The cache-aware affinity
     * policy reads this: views with a residency directory answer in
     * O(holders) per decision. The default derives it from
     * adapterResident — same truth, scan cost — so any view supports
     * the policy.
     */
    virtual void
    residentReplicas(model::AdapterId id,
                     std::vector<std::size_t> *out) const
    {
        out->clear();
        for (std::size_t i = 0; i < replicaCount(); ++i) {
            if (adapterResident(i, id))
                out->push_back(i);
        }
    }

    /**
     * Relative service rate of replica i, normalised so the fastest
     * replica is 1.0. Capacity-aware policies divide queue depths by
     * this weight (one queued request on a half-speed replica counts
     * like two on a full-speed one) and scale the affinity ring's
     * virtual-node share by it. Homogeneous clusters return exactly
     * 1.0 everywhere, which reduces every weighted comparison to the
     * unweighted one — the default for simple views.
     */
    virtual double serviceWeight(std::size_t i) const
    {
        (void)i;
        return 1.0;
    }

    /**
     * The whole weight vector, indexed [0, replicaCount()). Every
     * load-comparing policy reads weights once per replica per
     * decision, so views on the dispatch path override this with a
     * cached vector (DataParallelCluster invalidates on resize and
     * measured-rate updates); the default rebuilds from
     * serviceWeight(i) into a reused scratch buffer. Entries are
     * exactly serviceWeight(i) — same doubles, same divisions — so
     * switching a policy to the vector cannot move a routing decision.
     */
    virtual const std::vector<double> &
    serviceWeights() const
    {
        weightScratch_.resize(replicaCount());
        for (std::size_t i = 0; i < weightScratch_.size(); ++i)
            weightScratch_[i] = serviceWeight(i);
        return weightScratch_;
    }

  private:
    mutable std::vector<double> weightScratch_;
};

/** Selectable dispatch policies. */
enum class RouterPolicy {
    RoundRobin,
    JoinShortestQueue,
    PowerOfTwoChoices,
    AdapterAffinity,
    /** Affinity with true cache-hit routing: residency comes from the
     * cluster residency directory (ClusterView::residentReplicas, one
     * lookup per decision). "affinity-cache" parses to it. */
    AdapterAffinityDirectory,
};

/** The policies' short names, with the parse-only "round-robin" and
 * "affinity-cache" aliases; the three wrappers below read it. */
const sim::NameTable<RouterPolicy> &routerPolicyTable();
inline const char *
routerPolicyName(RouterPolicy policy)
{
    return routerPolicyTable().name(policy);
}
inline bool
routerPolicyByName(const std::string &name, RouterPolicy *out)
{
    return routerPolicyTable().byName(name, out);
}
inline const char *
routerPolicyNames()
{
    return routerPolicyTable().names();
}

/** Knobs shared by the stochastic and affinity policies. */
struct RouterConfig
{
    /** Seed for the PowerOfTwoChoices sampling stream. */
    std::uint64_t seed = 42;
    /**
     * Wrap the policy in the SLO-aware admission decorator
     * (routing/slo_admission.h): requests of SLO-critical tenants
     * (slo_multiplier < 1.0) are steered to the fastest effective-rate
     * replica instead of going through the wrapped policy. Off (the
     * default) leaves every decision to the base policy, bit-identically.
     */
    bool sloAdmission = false;
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const RouterConfig &a, const RouterConfig &b);

/** A global dispatch policy: picks one replica per arriving request. */
class Router
{
  public:
    virtual ~Router() = default;

    virtual const char *name() const = 0;

    /**
     * Pick the replica for `request` among `view.replicaCount()`
     * active replicas. Must return an index in [0, count).
     */
    virtual std::size_t route(const workload::Request &request,
                              const ClusterView &view) = 0;

    /**
     * The active replica set changed (autoscaling); the active set is
     * always the prefix [0, activeReplicas). Stateful policies resync
     * internal structures (hash ring, cursors) here.
     */
    virtual void
    onReplicaCountChanged(std::size_t activeReplicas)
    {
        (void)activeReplicas;
    }

    /**
     * Attach the span recorder for routing-decision instants. route()
     * has no time argument, so the clock rides along for timestamps;
     * policies that emit nothing simply never read the members. Null
     * (the default) disables emission. Virtual so decorating routers
     * (SloAdmissionRouter) can propagate the recorder to the policy
     * they wrap.
     */
    virtual void setTraceRecorder(obs::TraceRecorder *recorder,
                                  const sim::Simulator *clock)
    {
        trace_ = recorder;
        clock_ = clock;
    }

  protected:
    obs::TraceRecorder *trace_ = nullptr;
    const sim::Simulator *clock_ = nullptr;
};

/** Build a router for the policy. */
std::unique_ptr<Router> makeRouter(RouterPolicy policy,
                                   const RouterConfig &config = {});

} // namespace chameleon::routing

#endif // CHAMELEON_ROUTING_ROUTER_H
