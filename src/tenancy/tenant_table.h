/**
 * @file
 * Per-tenant lookups and fairness metrics.
 *
 * The tenancy layer gives requests an owner: a tenant with a scheduler
 * weight and an SLO multiplier, both held as per-tenant lists in
 * core::TenancySpec. entryOrOne() is the one lookup the fair
 * schedulers, the SLO-aware router and the reporting layer share; ids
 * beyond a list resolve to the neutral 1.0 so partially configured (or
 * wholly anonymous) workloads keep working.
 */

#ifndef CHAMELEON_TENANCY_TENANT_TABLE_H
#define CHAMELEON_TENANCY_TENANT_TABLE_H

#include <vector>

#include "workload/request.h"

namespace chameleon::tenancy {

using workload::TenantId;

/**
 * `values[tenant]`, or 1.0 for ids outside the list: negative ids, ids
 * past its end and every id of an unconfigured (empty) list.
 */
double entryOrOne(const std::vector<double> &values, TenantId tenant);

/**
 * Jain's fairness index over per-tenant allocations:
 * J = (sum x)^2 / (n * sum x^2), in (0, 1]; 1 iff all x equal.
 * Empty input (or all-zero allocations) reports 1.0 — nothing is unfair
 * about a run with nothing to share.
 */
double jainIndex(const std::vector<double> &allocations);

} // namespace chameleon::tenancy

#endif // CHAMELEON_TENANCY_TENANT_TABLE_H
