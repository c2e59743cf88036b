#include "tenancy/tenant_table.h"

#include "simkit/check.h"

namespace chameleon::tenancy {

double
entryOrOne(const std::vector<double> &values, TenantId tenant)
{
    if (tenant < 0 || tenant >= static_cast<TenantId>(values.size()))
        return 1.0;
    return values[static_cast<std::size_t>(tenant)];
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
