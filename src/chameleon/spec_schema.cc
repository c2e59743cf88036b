#include "chameleon/spec_schema.h"

namespace chameleon {

namespace {

/** Walks two objects' field lists in step, member by member. */
struct SameFields
{
    bool same = true;

    template <class T>
    void operator()(const char *, const T &a, const T &b)
    {
        same = same && a == b;
    }
};

template <class T>
bool
sameFields(const T &a, const T &b)
{
    SameFields visitor;
    fields(core::Of<T>{}, visitor, a, b);
    return visitor.same;
}

} // namespace

bool
model::operator==(const ModelSpec &a, const ModelSpec &b)
{
    return sameFields(a, b);
}

bool
model::operator==(const GpuSpec &a, const GpuSpec &b)
{
    return sameFields(a, b);
}

bool
model::operator==(const CostParams &a, const CostParams &b)
{
    return sameFields(a, b);
}

bool
serving::operator==(const EngineConfig &a, const EngineConfig &b)
{
    return sameFields(a, b);
}

bool
routing::operator==(const RouterConfig &a, const RouterConfig &b)
{
    return sameFields(a, b);
}

bool
routing::operator==(const AutoscalerConfig &a, const AutoscalerConfig &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const SchedulerSpec &a, const SchedulerSpec &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const AdapterSpec &a, const AdapterSpec &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const PredictorSpec &a, const PredictorSpec &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const ClusterSpec &a, const ClusterSpec &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const TenancySpec &a, const TenancySpec &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const FabricSpec &a, const FabricSpec &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const SystemSpec &a, const SystemSpec &b)
{
    return sameFields(a, b);
}

} // namespace chameleon
