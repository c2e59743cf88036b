#include "chameleon/system_spec.h"

#include <sstream>
#include <string>
#include <utility>

namespace chameleon::core {

const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Fifo: return "fifo";
      case SchedulerPolicy::Sjf: return "sjf";
      case SchedulerPolicy::Mlq: return "mlq";
      case SchedulerPolicy::Wfq: return "wfq";
      case SchedulerPolicy::Drr: return "drr";
    }
    return "?";
}

const char *
adapterPolicyName(AdapterPolicy policy)
{
    switch (policy) {
      case AdapterPolicy::OnDemand: return "on-demand";
      case AdapterPolicy::SLora: return "slora";
      case AdapterPolicy::ChameleonCache: return "chameleon-cache";
    }
    return "?";
}

const char *
evictionPolicyName(EvictionKind policy)
{
    switch (policy) {
      case EvictionKind::Paper: return "chameleon";
      case EvictionKind::Lru: return "lru";
      case EvictionKind::FairShare: return "fairshare";
      case EvictionKind::Gdsf: return "gdsf";
    }
    return "?";
}

const char *
reservationPolicyName(ReservationPolicy policy)
{
    switch (policy) {
      case ReservationPolicy::Auto: return "auto";
      case ReservationPolicy::MaxTokens: return "max-tokens";
      case ReservationPolicy::Predicted: return "predicted";
    }
    return "?";
}

bool
schedulerPolicyByName(const std::string &name, SchedulerPolicy *out)
{
    if (name == "fifo")
        *out = SchedulerPolicy::Fifo;
    else if (name == "sjf")
        *out = SchedulerPolicy::Sjf;
    else if (name == "mlq")
        *out = SchedulerPolicy::Mlq;
    else if (name == "wfq")
        *out = SchedulerPolicy::Wfq;
    else if (name == "drr")
        *out = SchedulerPolicy::Drr;
    else
        return false;
    return true;
}

bool
adapterPolicyByName(const std::string &name, AdapterPolicy *out)
{
    if (name == "on-demand")
        *out = AdapterPolicy::OnDemand;
    else if (name == "slora")
        *out = AdapterPolicy::SLora;
    else if (name == "chameleon-cache")
        *out = AdapterPolicy::ChameleonCache;
    else
        return false;
    return true;
}

bool
evictionPolicyByName(const std::string &name, EvictionKind *out)
{
    if (name == "chameleon")
        *out = EvictionKind::Paper;
    else if (name == "lru")
        *out = EvictionKind::Lru;
    else if (name == "fairshare")
        *out = EvictionKind::FairShare;
    else if (name == "gdsf")
        *out = EvictionKind::Gdsf;
    else
        return false;
    return true;
}

bool
reservationPolicyByName(const std::string &name, ReservationPolicy *out)
{
    if (name == "auto")
        *out = ReservationPolicy::Auto;
    else if (name == "max-tokens")
        *out = ReservationPolicy::MaxTokens;
    else if (name == "predicted")
        *out = ReservationPolicy::Predicted;
    else
        return false;
    return true;
}

const std::vector<EvictionKind> &
allEvictionPolicies()
{
    static const std::vector<EvictionKind> all{
        EvictionKind::Paper, EvictionKind::Lru,
        EvictionKind::FairShare, EvictionKind::Gdsf};
    return all;
}

double
TenancySpec::weightFor(int tenant) const
{
    if (tenant < 0 || tenant >= static_cast<int>(weights.size()))
        return 1.0;
    return weights[static_cast<std::size_t>(tenant)];
}

double
TenancySpec::sloMultiplierFor(int tenant) const
{
    if (tenant < 0 || tenant >= static_cast<int>(sloMultipliers.size()))
        return 1.0;
    return sloMultipliers[static_cast<std::size_t>(tenant)];
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
SystemSpec::withReplicas(int replicas, routing::RouterPolicy router)
{
    cluster.replicas = replicas;
    cluster.router = router;
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
    std::vector<std::string> errors;
    auto err = [&errors](const std::ostringstream &os) {
        errors.push_back(os.str());
    };

    if (cluster.replicas < 1) {
        std::ostringstream os;
        os << "cluster.replicas must be >= 1 (got " << cluster.replicas
           << "); replicas = 1 means a single engine";
        err(os);
    }
    if (!cluster.replicaEngines.empty() &&
        static_cast<int>(cluster.replicaEngines.size()) !=
            cluster.replicas) {
        std::ostringstream os;
        os << "cluster.replicaEngines has "
           << cluster.replicaEngines.size() << " per-replica overrides "
           << "but cluster.replicas = " << cluster.replicas
           << "; give exactly one override per replica (or clear the "
           << "list for a homogeneous fleet)";
        err(os);
    }
    for (std::size_t i = 0; i < cluster.replicaEngines.size(); ++i) {
        if (cluster.replicaEngines[i].tpDegree < 1) {
            std::ostringstream os;
            os << "cluster.replicaEngines[" << i
               << "].tpDegree must be >= 1 (got "
               << cluster.replicaEngines[i].tpDegree << ")";
            err(os);
        }
    }
    if (engine.tpDegree < 1) {
        std::ostringstream os;
        os << "engine.tpDegree must be >= 1 (got " << engine.tpDegree
           << ")";
        err(os);
    }
    // Engine knobs the simulation divides by, sizes memory with or
    // paces events on: below these floors a run aborts or admits
    // nothing. A default (unset) model or GPU is hardware the caller
    // has yet to choose, as in the presets, and is not checked.
    const auto checkEngine = [&](const serving::EngineConfig &e,
                                 const std::string &at) {
        const bool hasModel = !(e.model == model::ModelSpec{});
        const bool hasGpu = !(e.gpu == model::GpuSpec{});
        const auto n = [](auto v) { return static_cast<double>(v); };
        const struct
        {
            bool checked;
            const char *key;
            double value;
            double floor;
            bool strict; // value must exceed the floor, not only reach it
        } floors[] = {
            {hasModel, "model.layers", n(e.model.layers), 1, false},
            {hasModel, "model.kv_hidden", n(e.model.kvHidden), 1, false},
            {hasModel, "model.params", e.model.params, 0, false},
            {hasGpu, "gpu.fp16_flops", e.gpu.fp16Flops, 0, true},
            {hasGpu, "gpu.mem_bandwidth", e.gpu.memBandwidth, 0, true},
            {hasGpu, "gpu.mem_bytes", n(e.gpu.memBytes), 0, true},
            {hasGpu, "gpu.pcie_bandwidth", e.gpu.pcieBandwidth, 0, true},
            {hasGpu, "gpu.pcie_setup_seconds", e.gpu.pcieSetupSeconds, 0,
             false},
            {true, "cost.compute_util", e.cost.computeUtil, 0, true},
            {true, "cost.mem_util", e.cost.memUtil, 0, true},
            {true, "workspace_per_gpu", n(e.workspacePerGpu), 0, false},
            {true, "admission_token_budget", n(e.admissionTokenBudget), 1,
             false},
            {true, "max_admissions_per_iter", n(e.maxAdmissionsPerIter), 1,
             false},
            {true, "max_running", n(e.maxRunning), 1, false},
            {true, "kv_page_tokens", n(e.kvPageTokens), 1, false},
        };
        for (const auto &f : floors) {
            if (!f.checked || f.value > f.floor ||
                (f.value == f.floor && !f.strict))
                continue;
            std::ostringstream os;
            os << at << "." << f.key << " must be "
               << (f.strict ? "> " : ">= ") << f.floor << " (got "
               << f.value << ")";
            err(os);
        }
    };
    checkEngine(engine, "engine");
    for (std::size_t i = 0; i < cluster.replicaEngines.size(); ++i) {
        checkEngine(cluster.replicaEngines[i],
                    "cluster.replicas[" + std::to_string(i) + "]");
    }
    if (cluster.routerConfig.virtualNodes < 1) {
        std::ostringstream os;
        os << "cluster.router_config.virtual_nodes must be >= 1 (got "
           << cluster.routerConfig.virtualNodes << ")";
        err(os);
    }
    if (chunkedPrefill && chunkTokens <= 0) {
        std::ostringstream os;
        os << "chunked prefill enabled with non-positive chunk size ("
           << chunkTokens << "); set chunkTokens > 0 or disable "
           << "chunkedPrefill";
        err(os);
    }
    if (adapters.predictivePrefetch && adapters.prefetchTopK == 0) {
        std::ostringstream os;
        os << "predictive prefetch enabled with prefetchTopK = 0; set "
           << "adapters.prefetchTopK (paper uses 8)";
        err(os);
    }
    if (!adapters.predictivePrefetch && adapters.prefetchTopK > 0) {
        std::ostringstream os;
        os << "adapters.prefetchTopK = " << adapters.prefetchTopK
           << " without prefetch enabled; set "
           << "adapters.predictivePrefetch = true (or clear prefetchTopK)";
        err(os);
    }
    if (adapters.predictivePrefetch &&
        adapters.policy != AdapterPolicy::ChameleonCache) {
        std::ostringstream os;
        os << "predictive prefetch requires the chameleon cache; set "
           << "adapters.policy = AdapterPolicy::ChameleonCache (got "
           << adapterPolicyName(adapters.policy) << ")";
        err(os);
    }
    if (adapters.eviction != EvictionKind::Paper &&
        adapters.policy != AdapterPolicy::ChameleonCache) {
        std::ostringstream os;
        os << "eviction policy '" << evictionPolicyName(adapters.eviction)
           << "' requires the chameleon cache; set adapters.policy = "
           << "AdapterPolicy::ChameleonCache (got "
           << adapterPolicyName(adapters.policy) << ")";
        err(os);
    }
    if (predictor.kind != "bert" && predictor.kind != "history") {
        std::ostringstream os;
        os << "unknown predictor kind '" << predictor.kind
           << "'; use \"bert\" or \"history\"";
        err(os);
    }
    if (predictor.accuracy < 0.0 || predictor.accuracy > 1.0) {
        std::ostringstream os;
        os << "predictor.accuracy must be within [0, 1] (got "
           << predictor.accuracy << ")";
        err(os);
    }
    if (scheduler.policy == SchedulerPolicy::Mlq &&
        scheduler.sloSeconds <= 0.0) {
        std::ostringstream os;
        os << "MLQ quota assignment needs scheduler.sloSeconds > 0 (got "
           << scheduler.sloSeconds << ")";
        err(os);
    }
    if (tenancy.tenants < 1) {
        std::ostringstream os;
        os << "tenancy.tenants must be >= 1 (got " << tenancy.tenants
           << "); 1 means the anonymous single-tenant default";
        err(os);
    }
    if (!tenancy.weights.empty() &&
        static_cast<int>(tenancy.weights.size()) != tenancy.tenants) {
        std::ostringstream os;
        os << "tenancy.weights has " << tenancy.weights.size()
           << " entries but tenancy.tenants = " << tenancy.tenants
           << "; give one weight per tenant (or clear the list for "
           << "equal weights)";
        err(os);
    }
    for (std::size_t i = 0; i < tenancy.weights.size(); ++i) {
        if (tenancy.weights[i] <= 0.0) {
            std::ostringstream os;
            os << "tenancy.weights[" << i << "] must be > 0 (got "
               << tenancy.weights[i] << ")";
            err(os);
        }
    }
    if (!tenancy.sloMultipliers.empty() &&
        static_cast<int>(tenancy.sloMultipliers.size()) !=
            tenancy.tenants) {
        std::ostringstream os;
        os << "tenancy.sloMultipliers has " << tenancy.sloMultipliers.size()
           << " entries but tenancy.tenants = " << tenancy.tenants
           << "; give one multiplier per tenant (or clear the list)";
        err(os);
    }
    for (std::size_t i = 0; i < tenancy.sloMultipliers.size(); ++i) {
        if (tenancy.sloMultipliers[i] <= 0.0) {
            std::ostringstream os;
            os << "tenancy.sloMultipliers[" << i << "] must be > 0 (got "
               << tenancy.sloMultipliers[i] << ")";
            err(os);
        }
    }
    if (tenancy.drrQuantumTokens <= 0) {
        std::ostringstream os;
        os << "tenancy.drrQuantumTokens must be > 0 (got "
           << tenancy.drrQuantumTokens << "); it is the per-round DRR "
           << "credit in prefill tokens";
        err(os);
    }
    if (fabric.enabled() &&
        adapters.policy != AdapterPolicy::ChameleonCache) {
        std::ostringstream os;
        os << "fabric.migration '"
           << fabric::migrationPolicyName(fabric.migration)
           << "' needs peer admission, which only the chameleon cache "
           << "offers; set adapters.policy = "
           << "AdapterPolicy::ChameleonCache (got "
           << adapterPolicyName(adapters.policy)
           << ") or keep migration 'off'";
        err(os);
    }
    if (fabric.topK < 1) {
        std::ostringstream os;
        os << "fabric.topK must be >= 1 (got " << fabric.topK
           << "); it is the hot-adapter window per migration trigger";
        err(os);
    }
    if (fabric.enabled() && cluster.replicas <= 1 && !cluster.autoscale) {
        std::ostringstream os;
        os << "fabric.migration '"
           << fabric::migrationPolicyName(fabric.migration)
           << "' needs peers: set cluster.replicas > 1 or "
           << "cluster.autoscale = true (or keep migration 'off')";
        err(os);
    }
    if (cluster.autoscale) {
        if (cluster.autoscaler.minReplicas < 1) {
            errors.push_back(
                "autoscaler.minReplicas must be >= 1; a cluster cannot "
                "drain to zero replicas");
        }
        if (cluster.autoscaler.maxReplicas <
            cluster.autoscaler.minReplicas) {
            std::ostringstream os;
            os << "autoscaler.maxReplicas ("
               << cluster.autoscaler.maxReplicas
               << ") must be >= minReplicas ("
               << cluster.autoscaler.minReplicas << ")";
            err(os);
        }
        // Below 1 us a period rounds to zero simulated time: a zero
        // evaluation period re-arms at the same instant forever, and
        // the demand forecaster needs a positive window.
        const std::pair<const char *, double> periods[] = {
            {"eval_period_s", cluster.autoscaler.evalPeriodSeconds},
            {"forecast_window_s", cluster.autoscaler.forecastWindowSeconds},
        };
        for (const auto &[key, seconds] : periods) {
            if (seconds >= 1e-6)
                continue;
            std::ostringstream os;
            os << "cluster.autoscaler." << key << " must be at least 1 us "
               << "(got " << seconds << " s)";
            err(os);
        }
        if (!(cluster.autoscaler.lowWatermark <
              cluster.autoscaler.highWatermark)) {
            std::ostringstream os;
            os << "cluster.autoscaler.high_watermark ("
               << cluster.autoscaler.highWatermark
               << ") must exceed low_watermark ("
               << cluster.autoscaler.lowWatermark << ")";
            err(os);
        }
        if (cluster.autoscaler.bootMs < 0.0) {
            std::ostringstream os;
            os << "autoscaler.bootMs must be >= 0 (got "
               << cluster.autoscaler.bootMs
               << "); 0 disables the cold-start model";
            err(os);
        }
        if (cluster.autoscaler.measuredRateAlpha < 0.0 ||
            cluster.autoscaler.measuredRateAlpha > 1.0) {
            std::ostringstream os;
            os << "autoscaler.measuredRateAlpha must be within [0, 1] "
               << "(got " << cluster.autoscaler.measuredRateAlpha
               << "); 0 keeps the static nominal rates";
            err(os);
        }
    }
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
sloraChunked()
{
    SystemSpec spec = slora();
    spec.name = "slora-chunked";
    spec.chunkedPrefill = true;
    spec.chunkTokens = 64;
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
chameleonLru()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-lru";
    spec.adapters.eviction = EvictionKind::Lru;
    return spec;
}

SystemSpec
chameleonFairShare()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-fairshare";
    spec.adapters.eviction = EvictionKind::FairShare;
    return spec;
}

SystemSpec
chameleonGdsf()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-gdsf";
    spec.adapters.eviction = EvictionKind::Gdsf;
    return spec;
}

SystemSpec
chameleonPrefetch()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-prefetch";
    spec.adapters.predictivePrefetch = true;
    spec.adapters.prefetchTopK = 8;
    return spec;
}

SystemSpec
chameleonStatic()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-static";
    spec.scheduler.dynamicQueues = false;
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
