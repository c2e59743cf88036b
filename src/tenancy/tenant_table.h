/**
 * @file
 * Tenant descriptors and fairness metrics.
 *
 * The tenancy layer gives requests an owner: a tenant with a scheduler
 * weight and an SLO multiplier. TenantTable is
 * the lookup the fair schedulers and the reporting layer share; ids
 * beyond the configured table resolve to neutral defaults so partially
 * configured (or wholly anonymous) workloads keep working.
 */

#ifndef CHAMELEON_TENANCY_TENANT_TABLE_H
#define CHAMELEON_TENANCY_TENANT_TABLE_H

#include <vector>

#include "workload/request.h"

namespace chameleon::tenancy {

using workload::TenantId;

/** Static per-tenant configuration. */
struct TenantInfo
{
    /** Scheduler weight (WFQ service share, DRR quantum scale). */
    double weight = 1.0;
    /** Per-tenant scale on the global TTFT SLO. */
    double sloMultiplier = 1.0;
};

/**
 * Lookup table of tenant descriptors, indexed by TenantId.
 *
 * Out-of-range ids (including every id of an unconfigured run) resolve
 * to weight 1.0 / SLO multiplier 1.0, so schedulers never need to guard
 * against tenants the config did not declare.
 */
class TenantTable
{
  public:
    /** Empty table: every tenant anonymous and equally weighted. */
    TenantTable() = default;

    /** `tenants` entries with default (neutral) descriptors. */
    explicit TenantTable(int tenants);

    void setWeight(TenantId tenant, double weight);
    void setSloMultiplier(TenantId tenant, double multiplier);

    /** Scheduler weight; 1.0 for ids outside the table. */
    double weight(TenantId tenant) const;
    /** SLO scale; 1.0 for ids outside the table. */
    double sloMultiplier(TenantId tenant) const;

    int size() const { return static_cast<int>(rows_.size()); }

  private:
    TenantInfo &rowFor(TenantId tenant);
    std::vector<TenantInfo> rows_;
};

/**
 * Jain's fairness index over per-tenant allocations:
 * J = (sum x)^2 / (n * sum x^2), in (0, 1]; 1 iff all x equal.
 * Empty input (or all-zero allocations) reports 1.0 — nothing is unfair
 * about a run with nothing to share.
 */
double jainIndex(const std::vector<double> &allocations);

} // namespace chameleon::tenancy

#endif // CHAMELEON_TENANCY_TENANT_TABLE_H
