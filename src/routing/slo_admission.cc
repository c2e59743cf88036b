#include "routing/slo_admission.h"

#include <limits>

#include "obs/trace_recorder.h"
#include "simkit/check.h"
#include "simkit/simulator.h"
#include "tenancy/tenant_table.h"

namespace chameleon::routing {

SloAdmissionRouter::SloAdmissionRouter(std::unique_ptr<Router> inner,
                                       std::vector<double> sloMultipliers)
    : inner_(std::move(inner)),
      sloMultipliers_(std::move(sloMultipliers))
{
    CHM_CHECK(inner_ != nullptr, "slo admission needs a base policy");
    for (const double m : sloMultipliers_)
        CHM_CHECK(m > 0.0, "slo multipliers must be > 0");
}

bool
SloAdmissionRouter::sloCritical(workload::TenantId tenant) const
{
    return tenancy::entryOrOne(sloMultipliers_, tenant) < 1.0;
}

std::size_t
SloAdmissionRouter::route(const workload::Request &request,
                          const ClusterView &view)
{
    if (!sloCritical(request.tenant))
        return inner_->route(request, view);

    const std::size_t n = view.replicaCount();
    CHM_CHECK(n > 0, "routing with no active replicas");
    // Fastest effective-rate replica; among equally fast ones take the
    // shorter capacity-normalised queue, then the lower index — the
    // same deterministic tie-breaks the load-comparing policies use.
    const std::vector<double> &weights = view.serviceWeights();
    std::size_t best = 0;
    double bestWeight = -std::numeric_limits<double>::infinity();
    double bestLoad = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
        const double weight = weights[i];
        if (weight < bestWeight)
            continue;
        const double load =
            static_cast<double>(view.outstanding(i)) / weight;
        if (weight > bestWeight || load < bestLoad) {
            best = i;
            bestWeight = weight;
            bestLoad = load;
        }
    }
    ++steered_;
    if (trace_ != nullptr) {
        trace_->instant(obs::kClusterPid, obs::Lane::Control,
                        "route_slo", clock_->now(),
                        {{"request", request.id},
                         {"tenant", request.tenant},
                         {"replica", best}});
    }
    return best;
}

void
SloAdmissionRouter::onReplicaCountChanged(std::size_t activeReplicas)
{
    inner_->onReplicaCountChanged(activeReplicas);
}

void
SloAdmissionRouter::setTraceRecorder(obs::TraceRecorder *recorder,
                                     const sim::Simulator *clock)
{
    Router::setTraceRecorder(recorder, clock);
    inner_->setTraceRecorder(recorder, clock);
}

} // namespace chameleon::routing
