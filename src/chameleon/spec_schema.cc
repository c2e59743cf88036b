#include "chameleon/spec_schema.h"

#include <sstream>
#include <utility>

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

/** Does T have a field list (is it a nested spec object)? */
template <class T, class = void>
struct HasFields : std::false_type
{
};

template <class T>
struct HasFields<T, std::void_t<decltype(fields(
                        core::Of<T>{}, std::declval<void (&)(...)>(),
                        std::declval<const T &>()))>> : std::true_type
{
};

/**
 * Walks the field lists of the object at `path`, reporting each value
 * outside its Bound. A key's path is built only for an object the walk
 * descends into or a value it reports.
 */
struct BoundsCheck
{
    bool autoscale;
    std::string path;
    std::vector<std::string> *errors;

    template <class T>
    void
    operator()(const char *key, const T &field)
    {
        if constexpr (HasFields<T>::value)
            walk(pathOf(key), field);
    }

    template <class T>
    void
    operator()(const char *key, core::Bound<T> bound)
    {
        if constexpr (std::is_arithmetic_v<std::remove_const_t<T>>) {
            check(key, "", bound.v, bound);
        } else {
            for (std::size_t i = 0; i < bound.v.size(); ++i)
                check(key, "[" + std::to_string(i) + "]", bound.v[i], bound);
        }
    }

    template <class N, class E>
    void
    operator()(const char *key, core::Replicas<N, E> deployment)
    {
        (*this)(key, deployment.count);
        for (std::size_t i = 0; i < deployment.engines.size(); ++i)
            walk(pathOf(key) + "[" + std::to_string(i) + "]",
                 deployment.engines[i]);
    }

    template <class T>
    void
    operator()(const char *, core::Derived<T>)
    {
    }

    template <class V, class T>
    void
    check(const char *key, const std::string &index, V v,
          const core::Bound<T> &bound)
    {
        const auto x = static_cast<double>(v);
        if ((bound.strict ? x > bound.lo : x >= bound.lo) && x <= bound.hi)
            return;
        std::ostringstream os;
        os << pathOf(key) << index << " must be ";
        if (bound.hi < std::numeric_limits<double>::infinity())
            os << "within [" << bound.lo << ", " << bound.hi << "]";
        else
            os << (bound.strict ? "> " : ">= ") << bound.lo;
        os << " (got " << v << ")";
        errors->push_back(os.str());
    }

    std::string
    pathOf(const char *key) const
    {
        return path.empty() ? key : path + "." + key;
    }

    /** Hardware left at its default, or the autoscaler while off, is
     * not checked. */
    template <class T>
    void
    walk(std::string at, const T &object)
    {
        if constexpr (std::is_same_v<T, model::ModelSpec> ||
                      std::is_same_v<T, model::GpuSpec>) {
            if (object == T{})
                return;
        }
        if constexpr (std::is_same_v<T, routing::AutoscalerConfig>) {
            if (!autoscale)
                return;
        }
        fields(core::Of<T>{}, BoundsCheck{autoscale, std::move(at), errors},
               object);
    }
};

} // namespace

void
core::checkBounds(const SystemSpec &spec, std::vector<std::string> *errors)
{
    fields(Of<SystemSpec>{}, BoundsCheck{spec.cluster.autoscale, "", errors},
           spec);
}

void
core::checkBounds(const workload::TraceGenConfig &workload,
                  std::vector<std::string> *errors)
{
    BoundsCheck{false, "", errors}.walk("workload", workload);
}

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
fabric::operator==(const FabricConfig &a, const FabricConfig &b)
{
    return sameFields(a, b);
}

bool
workload::operator==(const TraceGenConfig &a, const TraceGenConfig &b)
{
    return sameFields(a, b);
}

bool
core::operator==(const SystemSpec &a, const SystemSpec &b)
{
    return sameFields(a, b);
}

} // namespace chameleon
