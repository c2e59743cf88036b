#include "tenancy/tenant_table.h"

#include "simkit/check.h"

namespace chameleon::tenancy {

TenantTable::TenantTable(int tenants)
{
    CHM_CHECK(tenants >= 0, "tenant count must be non-negative");
    rows_.resize(static_cast<std::size_t>(tenants));
}

TenantInfo &
TenantTable::rowFor(TenantId tenant)
{
    CHM_CHECK(tenant >= 0, "tenant ids are non-negative");
    if (tenant >= size())
        rows_.resize(static_cast<std::size_t>(tenant) + 1);
    return rows_[static_cast<std::size_t>(tenant)];
}

void
TenantTable::setWeight(TenantId tenant, double weight)
{
    CHM_CHECK(weight > 0.0, "tenant weight must be positive");
    rowFor(tenant).weight = weight;
}

void
TenantTable::setSloMultiplier(TenantId tenant, double multiplier)
{
    CHM_CHECK(multiplier > 0.0, "tenant SLO multiplier must be positive");
    rowFor(tenant).sloMultiplier = multiplier;
}

double
TenantTable::weight(TenantId tenant) const
{
    if (tenant < 0 || tenant >= size())
        return 1.0;
    return rows_[static_cast<std::size_t>(tenant)].weight;
}

double
TenantTable::sloMultiplier(TenantId tenant) const
{
    if (tenant < 0 || tenant >= size())
        return 1.0;
    return rows_[static_cast<std::size_t>(tenant)].sloMultiplier;
}

double
jainIndex(const std::vector<double> &allocations)
{
    if (allocations.empty())
        return 1.0;
    double sum = 0.0;
    double sumSq = 0.0;
    for (const double x : allocations) {
        CHM_CHECK(x >= 0.0, "Jain's index needs non-negative allocations");
        sum += x;
        sumSq += x * x;
    }
    if (sumSq == 0.0)
        return 1.0;
    const double n = static_cast<double>(allocations.size());
    return (sum * sum) / (n * sumSq);
}

} // namespace chameleon::tenancy
