#include "chameleon/system_spec.h"

#include "chameleon/spec_schema.h"
#include "tenancy/tenant_table.h"

#include <sstream>
#include <string>
#include <utility>

namespace chameleon::core {

const sim::NameTable<SchedulerPolicy> &
schedulerPolicyTable()
{
    static const sim::NameTable<SchedulerPolicy> table{
        {SchedulerPolicy::Fifo, "fifo"}, {SchedulerPolicy::Sjf, "sjf"},
        {SchedulerPolicy::Mlq, "mlq"},   {SchedulerPolicy::Wfq, "wfq"},
        {SchedulerPolicy::Drr, "drr"}};
    return table;
}

const sim::NameTable<AdapterPolicy> &
adapterPolicyTable()
{
    static const sim::NameTable<AdapterPolicy> table{
        {AdapterPolicy::OnDemand, "on-demand"},
        {AdapterPolicy::SLora, "slora"},
        {AdapterPolicy::ChameleonCache, "chameleon-cache"}};
    return table;
}

const sim::NameTable<EvictionKind> &
evictionPolicyTable()
{
    static const sim::NameTable<EvictionKind> table{
        {EvictionKind::Paper, "chameleon"},
        {EvictionKind::Lru, "lru"},
        {EvictionKind::FairShare, "fairshare"},
        {EvictionKind::Gdsf, "gdsf"}};
    return table;
}

const sim::NameTable<ReservationPolicy> &
reservationPolicyTable()
{
    static const sim::NameTable<ReservationPolicy> table{
        {ReservationPolicy::Auto, "auto"},
        {ReservationPolicy::MaxTokens, "max-tokens"},
        {ReservationPolicy::Predicted, "predicted"}};
    return table;
}

double
TenancySpec::weightFor(int tenant) const
{
    return tenancy::entryOrOne(weights, tenant);
}

double
TenancySpec::sloMultiplierFor(int tenant) const
{
    return tenancy::entryOrOne(sloMultipliers, tenant);
}

SystemSpec &
SystemSpec::named(std::string n)
{
    name = std::move(n);
    return *this;
}

SystemSpec &
SystemSpec::withScheduler(SchedulerPolicy p)
{
    scheduler.policy = p;
    return *this;
}

SystemSpec &
SystemSpec::withEviction(EvictionKind e)
{
    adapters.policy = AdapterPolicy::ChameleonCache;
    adapters.eviction = e;
    return *this;
}

SystemSpec &
SystemSpec::withPrefetch(std::size_t topK)
{
    adapters.predictivePrefetch = true;
    adapters.prefetchTopK = topK;
    return *this;
}

SystemSpec &
SystemSpec::withFleet(const std::vector<model::GpuSpec> &gpus,
                      routing::RouterPolicy router)
{
    cluster.replicas = static_cast<int>(gpus.size());
    cluster.router = router;
    cluster.replicaEngines = serving::fleetEngines(engine, gpus);
    return *this;
}

const serving::EngineConfig &
SystemSpec::resolvedEngine(std::size_t replica) const
{
    if (replica < cluster.replicaEngines.size())
        return cluster.replicaEngines[replica];
    return engine;
}

std::vector<std::string>
SystemSpec::validate() const
{
    // Single-key ranges are declared in the field lists; the rules here
    // relate two keys, but for the one range a Seconds member cannot
    // declare. Both name keys and values as --set takes them.
    std::vector<std::string> errors;
    checkBounds(*this, &errors);
    const auto err = [&errors](const auto &...parts) {
        std::ostringstream os;
        (os << ... << parts);
        errors.push_back(os.str());
    };
    // Below 0 the MLQ scheduler re-clusters at every check, as at 0.
    if (scheduler.refreshPeriod < 0)
        err("scheduler.refresh_period_s must be >= 0 (got ",
            sim::toSeconds(scheduler.refreshPeriod), ")");
    const char *cache = adapterPolicyName(AdapterPolicy::ChameleonCache);
    const char *adapterPolicy = adapterPolicyName(adapters.policy);
    const bool cached = adapters.policy == AdapterPolicy::ChameleonCache;

    if (!cluster.replicaEngines.empty() &&
        static_cast<int>(cluster.replicaEngines.size()) != cluster.replicas)
        err("cluster.replicas has ", cluster.replicaEngines.size(),
            " per-replica engines for a count of ", cluster.replicas,
            "; give exactly one override per replica (or none for a "
            "homogeneous fleet)");
    if (chunkedPrefill && chunkTokens <= 0)
        err("chunked_prefill=true with a non-positive chunk size: "
            "chunk_tokens must be > 0 (got ",
            chunkTokens, "), or set chunked_prefill=false");
    if (adapters.predictivePrefetch && adapters.prefetchTopK == 0)
        err("adapters.predictive_prefetch=true with "
            "adapters.prefetch_top_k=0; set adapters.prefetch_top_k "
            "(paper uses 8)");
    if (!adapters.predictivePrefetch && adapters.prefetchTopK > 0)
        err("adapters.prefetch_top_k=", adapters.prefetchTopK,
            " without prefetch enabled; set "
            "adapters.predictive_prefetch=true (or "
            "adapters.prefetch_top_k=0)");
    if (adapters.predictivePrefetch && !cached)
        err("adapters.predictive_prefetch=true requires the chameleon "
            "cache; set adapters.policy=",
            cache, " (got ", adapterPolicy, ")");
    if (adapters.eviction != EvictionKind::Paper && !cached)
        err("adapters.eviction=", evictionPolicyName(adapters.eviction),
            " requires the chameleon cache; set adapters.policy=", cache,
            " (got ", adapterPolicy, ")");
    if (predictor.kind != "bert" && predictor.kind != "history")
        err("predictor.kind: unknown value \"", predictor.kind,
            "\"; known: bert, history");
    if (scheduler.policy == SchedulerPolicy::Mlq &&
        scheduler.sloSeconds <= 0.0)
        err("scheduler.policy=", schedulerPolicyName(scheduler.policy),
            " needs scheduler.slo_seconds > 0 for quota assignment (got ",
            scheduler.sloSeconds, ")");
    const std::pair<const char *, std::size_t> perTenant[] = {
        {"tenancy.weights", tenancy.weights.size()},
        {"tenancy.slo_multipliers", tenancy.sloMultipliers.size()},
    };
    for (const auto &[key, entries] : perTenant) {
        if (entries != 0 && static_cast<int>(entries) != tenancy.tenants)
            err(key, " has ", entries, " entries but tenancy.tenants=",
                tenancy.tenants,
                "; give one per tenant (or [] for the default)");
    }
    const char *migration = fabric::migrationPolicyName(fabric.migration);
    const char *off =
        fabric::migrationPolicyName(fabric::MigrationPolicy::Off);
    if (fabric.enabled() && !cached)
        err("fabric.migration=", migration, " needs peer admission, which "
            "only the chameleon cache offers; set adapters.policy=",
            cache, " (got ", adapterPolicy, ") or fabric.migration=", off);
    if (fabric.enabled() && cluster.replicas <= 1 && !cluster.autoscale)
        err("fabric.migration=", migration, " needs peers: set "
            "cluster.replicas > 1 or cluster.autoscale=true (or "
            "fabric.migration=", off, ")");
    const auto &scaler = cluster.autoscaler;
    if (cluster.autoscale && scaler.maxReplicas < scaler.minReplicas)
        err("cluster.autoscaler.max_replicas (", scaler.maxReplicas,
            ") must be >= cluster.autoscaler.min_replicas (",
            scaler.minReplicas, ")");
    // Every engine's GPUs hold the model's weights and the workspace
    // with memory left for requests: at least one token's KV cache,
    // since the MLQ scheduler sizes its token pool from what is left.
    // Hardware left at its default is not checked (as in checkBounds),
    // nor a tp_degree that checkBounds rejects.
    const auto checkMemory = [&err](const serving::EngineConfig &e,
                                    const std::string &path) {
        if (e.model == model::ModelSpec{} || e.gpu == model::GpuSpec{} ||
            e.tpDegree < 1)
            return;
        std::int64_t gpuBytes = 0;
        if (__builtin_mul_overflow(static_cast<std::int64_t>(e.tpDegree),
                                   e.gpu.memBytes, &gpuBytes))
            return; // more memory than any model's weights
        const std::int64_t weights = e.model.weightsBytes();
        const std::int64_t token = e.model.kvBytesPerToken();
        const std::int64_t left = gpuBytes - weights;
        if (left < token) {
            const std::int64_t need = weights + token;
            err(path, ".gpu.mem_bytes must be at least ",
                need / e.tpDegree + (need % e.tpDegree != 0 ? 1 : 0),
                ": ", e.tpDegree, " x ", e.gpu.memBytes,
                " B of GPU memory cannot hold the model's ", weights,
                " B of weights and one token's KV cache (", token,
                " B) (got ", e.gpu.memBytes, ")");
            return;
        }
        const std::int64_t limit = (left - token) / e.tpDegree;
        if (e.workspacePerGpu > limit)
            err(path, ".workspace_per_gpu must be at most ", limit, ": ",
                e.tpDegree, " x ", e.gpu.memBytes,
                " B of GPU memory less ", weights,
                " B of weights leaves ", left, " B, too little for ",
                e.tpDegree, " x ", e.workspacePerGpu,
                " B of workspace and one token's KV cache (", token,
                " B) (got ", e.workspacePerGpu, ")");
    };
    checkMemory(engine, "engine");
    for (std::size_t i = 0; i < cluster.replicaEngines.size(); ++i)
        checkMemory(cluster.replicaEngines[i],
                    "cluster.replicas[" + std::to_string(i) + "]");
    return errors;
}

namespace presets {

namespace {

/** Common base: engine/predictor at defaults, axes set per preset. */
SystemSpec
base(const char *name)
{
    SystemSpec spec;
    spec.name = name;
    return spec;
}

} // namespace

SystemSpec
slora()
{
    SystemSpec spec = base("slora");
    spec.scheduler.policy = SchedulerPolicy::Fifo;
    spec.adapters.policy = AdapterPolicy::SLora;
    return spec;
}

SystemSpec
sloraSjf()
{
    SystemSpec spec = slora();
    spec.name = "slora-sjf";
    spec.scheduler.policy = SchedulerPolicy::Sjf;
    return spec;
}

SystemSpec
chameleonNoCache()
{
    SystemSpec spec = base("chameleon-nocache");
    spec.scheduler.policy = SchedulerPolicy::Mlq;
    spec.adapters.policy = AdapterPolicy::SLora;
    return spec;
}

SystemSpec
chameleonNoSched()
{
    SystemSpec spec = base("chameleon-nosched");
    spec.scheduler.policy = SchedulerPolicy::Fifo;
    spec.adapters.policy = AdapterPolicy::ChameleonCache;
    return spec;
}

SystemSpec
chameleon()
{
    SystemSpec spec = base("chameleon");
    spec.scheduler.policy = SchedulerPolicy::Mlq;
    spec.adapters.policy = AdapterPolicy::ChameleonCache;
    return spec;
}

SystemSpec
chameleonOutputOnly()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-output-only";
    spec.scheduler.wrsForm = WrsForm::OutputOnly;
    return spec;
}

SystemSpec
chameleonDegree1()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-degree1";
    spec.scheduler.wrsForm = WrsForm::Degree1;
    return spec;
}

} // namespace presets

} // namespace chameleon::core
