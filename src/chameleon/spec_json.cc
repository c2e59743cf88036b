#include "chameleon/spec_json.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <tuple>
#include <vector>

#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/time.h"

namespace chameleon::core {

using sim::JsonValue;

namespace {

// ---------------------------------------------------------------------
// Printing.
// ---------------------------------------------------------------------

JsonValue
modelToJson(const model::ModelSpec &m)
{
    JsonValue o = JsonValue::makeObject();
    o.set("name", JsonValue::makeString(m.name));
    o.set("layers", JsonValue::makeInt(m.layers));
    o.set("hidden", JsonValue::makeInt(m.hidden));
    o.set("kv_hidden", JsonValue::makeInt(m.kvHidden));
    o.set("params", JsonValue::makeNumber(m.params));
    return o;
}

JsonValue
gpuToJson(const model::GpuSpec &g)
{
    JsonValue o = JsonValue::makeObject();
    o.set("name", JsonValue::makeString(g.name));
    o.set("fp16_flops", JsonValue::makeNumber(g.fp16Flops));
    o.set("mem_bandwidth", JsonValue::makeNumber(g.memBandwidth));
    o.set("mem_bytes", JsonValue::makeInt(g.memBytes));
    o.set("pcie_bandwidth", JsonValue::makeNumber(g.pcieBandwidth));
    o.set("pcie_setup_seconds", JsonValue::makeNumber(g.pcieSetupSeconds));
    return o;
}

JsonValue
costToJson(const model::CostParams &c)
{
    JsonValue o = JsonValue::makeObject();
    o.set("compute_util", JsonValue::makeNumber(c.computeUtil));
    o.set("mem_util", JsonValue::makeNumber(c.memUtil));
    o.set("prefill_fixed_ms", JsonValue::makeNumber(c.prefillFixedMs));
    o.set("mbgmm_fixed_ms", JsonValue::makeNumber(c.mbgmmFixedMs));
    o.set("lora_ineff", JsonValue::makeNumber(c.loraIneff));
    o.set("decode_fixed_ms", JsonValue::makeNumber(c.decodeFixedMs));
    o.set("decode_req_us", JsonValue::makeNumber(c.decodeReqUs));
    o.set("mbgmv_fixed_ms", JsonValue::makeNumber(c.mbgmvFixedMs));
    o.set("decode_rank_us", JsonValue::makeNumber(c.decodeRankUs));
    o.set("tp_sync_ms", JsonValue::makeNumber(c.tpSyncMs));
    o.set("tp_eff_loss_per_log2",
          JsonValue::makeNumber(c.tpEffLossPerLog2));
    return o;
}

JsonValue
engineToJson(const serving::EngineConfig &e)
{
    JsonValue o = JsonValue::makeObject();
    o.set("model", modelToJson(e.model));
    o.set("gpu", gpuToJson(e.gpu));
    o.set("tp_degree", JsonValue::makeInt(e.tpDegree));
    o.set("cost", costToJson(e.cost));
    o.set("workspace_per_gpu", JsonValue::makeInt(e.workspacePerGpu));
    o.set("admission_token_budget",
          JsonValue::makeInt(e.admissionTokenBudget));
    o.set("max_new_tokens", JsonValue::makeInt(e.maxNewTokens));
    o.set("max_admissions_per_iter",
          JsonValue::makeInt(e.maxAdmissionsPerIter));
    o.set("max_running", JsonValue::makeInt(e.maxRunning));
    o.set("kv_page_tokens", JsonValue::makeInt(e.kvPageTokens));
    o.set("mem_sample_period_s",
          JsonValue::makeNumber(sim::toSeconds(e.memSamplePeriod)));
    return o;
}

JsonValue
schedulerToJson(const SchedulerSpec &s)
{
    JsonValue o = JsonValue::makeObject();
    o.set("policy", JsonValue::makeString(schedulerPolicyName(s.policy)));
    o.set("sjf_aging_per_second",
          JsonValue::makeNumber(s.sjfAgingPerSecond));
    o.set("slo_seconds", JsonValue::makeNumber(s.sloSeconds));
    o.set("refresh_period_s",
          JsonValue::makeNumber(sim::toSeconds(s.refreshPeriod)));
    o.set("bypass", JsonValue::makeBool(s.bypass));
    o.set("dynamic_queues", JsonValue::makeBool(s.dynamicQueues));
    o.set("wrs_form", JsonValue::makeString(wrsFormName(s.wrsForm)));
    return o;
}

JsonValue
adaptersToJson(const AdapterSpec &a)
{
    JsonValue o = JsonValue::makeObject();
    o.set("policy", JsonValue::makeString(adapterPolicyName(a.policy)));
    o.set("eviction",
          JsonValue::makeString(evictionPolicyName(a.eviction)));
    o.set("predictive_prefetch",
          JsonValue::makeBool(a.predictivePrefetch));
    o.set("prefetch_top_k",
          JsonValue::makeInt(static_cast<std::int64_t>(a.prefetchTopK)));
    return o;
}

JsonValue
predictorToJson(const PredictorSpec &p)
{
    JsonValue o = JsonValue::makeObject();
    o.set("kind", JsonValue::makeString(p.kind));
    o.set("accuracy", JsonValue::makeNumber(p.accuracy));
    o.set("seed", JsonValue::makeUint64(p.seed));
    return o;
}

JsonValue
clusterToJson(const ClusterSpec &c)
{
    JsonValue o = JsonValue::makeObject();
    if (c.replicaEngines.empty()) {
        o.set("replicas", JsonValue::makeInt(c.replicas));
    } else {
        // Heterogeneous fleet: "replicas" becomes the ordered list of
        // fully resolved per-replica engines. Printing every field
        // (rather than a diff against "engine") keeps the round trip
        // exact whatever base the overrides were applied onto.
        JsonValue list = JsonValue::makeArray();
        for (const auto &engine : c.replicaEngines)
            list.push(engineToJson(engine));
        o.set("replicas", std::move(list));
    }
    o.set("router",
          JsonValue::makeString(routing::routerPolicyName(c.router)));
    JsonValue rc = JsonValue::makeObject();
    rc.set("seed", JsonValue::makeUint64(c.routerConfig.seed));
    rc.set("virtual_nodes",
           JsonValue::makeInt(c.routerConfig.virtualNodes));
    rc.set("spill_load_factor",
           JsonValue::makeNumber(c.routerConfig.spillLoadFactor));
    rc.set("spill_margin", JsonValue::makeInt(c.routerConfig.spillMargin));
    rc.set("slo_admission",
           JsonValue::makeBool(c.routerConfig.sloAdmission));
    o.set("router_config", std::move(rc));
    o.set("autoscale", JsonValue::makeBool(c.autoscale));
    JsonValue as = JsonValue::makeObject();
    as.set("min_replicas",
           JsonValue::makeInt(
               static_cast<std::int64_t>(c.autoscaler.minReplicas)));
    as.set("max_replicas",
           JsonValue::makeInt(
               static_cast<std::int64_t>(c.autoscaler.maxReplicas)));
    as.set("eval_period_s",
           JsonValue::makeNumber(c.autoscaler.evalPeriodSeconds));
    as.set("high_watermark",
           JsonValue::makeNumber(c.autoscaler.highWatermark));
    as.set("low_watermark",
           JsonValue::makeNumber(c.autoscaler.lowWatermark));
    as.set("forecast_horizon_s",
           JsonValue::makeNumber(c.autoscaler.forecastHorizonSeconds));
    as.set("forecast_window_s",
           JsonValue::makeNumber(c.autoscaler.forecastWindowSeconds));
    as.set("replica_service_rps",
           JsonValue::makeNumber(c.autoscaler.replicaServiceRps));
    as.set("up_cooldown_periods",
           JsonValue::makeInt(c.autoscaler.upCooldownPeriods));
    as.set("down_cooldown_periods",
           JsonValue::makeInt(c.autoscaler.downCooldownPeriods));
    as.set("boot_ms", JsonValue::makeNumber(c.autoscaler.bootMs));
    as.set("scale_up_policy",
           JsonValue::makeString(routing::scaleUpPolicyName(
               c.autoscaler.scaleUpPolicy)));
    as.set("measured_rate_alpha",
           JsonValue::makeNumber(c.autoscaler.measuredRateAlpha));
    as.set("boot_aware_horizon",
           JsonValue::makeBool(c.autoscaler.bootAwareHorizon));
    o.set("autoscaler", std::move(as));
    return o;
}

JsonValue
fabricToJson(const FabricSpec &f)
{
    JsonValue o = JsonValue::makeObject();
    o.set("migration",
          JsonValue::makeString(
              fabric::migrationPolicyName(f.migration)));
    o.set("topology",
          JsonValue::makeString(fabric::topologyName(f.topology)));
    o.set("top_k",
          JsonValue::makeInt(static_cast<std::int64_t>(f.topK)));
    return o;
}

JsonValue
tenancyToJson(const TenancySpec &t)
{
    JsonValue o = JsonValue::makeObject();
    o.set("tenants", JsonValue::makeInt(t.tenants));
    JsonValue weights = JsonValue::makeArray();
    for (const double w : t.weights)
        weights.push(JsonValue::makeNumber(w));
    o.set("weights", std::move(weights));
    JsonValue slos = JsonValue::makeArray();
    for (const double m : t.sloMultipliers)
        slos.push(JsonValue::makeNumber(m));
    o.set("slo_multipliers", std::move(slos));
    o.set("drr_quantum_tokens", JsonValue::makeInt(t.drrQuantumTokens));
    return o;
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

/** Number of seconds -> SimTime, via a JsonObjectReader key. */
bool
getSeconds(sim::JsonObjectReader &r, const std::string &key,
           sim::SimTime *out)
{
    double seconds = sim::toSeconds(*out);
    if (!r.getDouble(key, &seconds))
        return false;
    *out = sim::fromSeconds(seconds);
    return true;
}

bool
modelFromJson(const JsonValue &v, const std::string &path,
              model::ModelSpec *out, std::string *error)
{
    if (v.isString()) {
        const std::string &name = v.asString();
        if (!model::tryModelByName(name, out)) {
            if (error != nullptr)
                *error = "\"" + path + "\" unknown model preset \"" +
                         name + "\"; known: " +
                         model::modelPresetNames() +
                         " (or a full model object)";
            return false;
        }
        return true;
    }
    sim::JsonObjectReader r(v, path, error);
    r.getString("name", &out->name);
    r.getInt("layers", &out->layers);
    r.getInt("hidden", &out->hidden);
    r.getInt("kv_hidden", &out->kvHidden);
    r.getDouble("params", &out->params);
    return r.finish();
}

bool
gpuFromJson(const JsonValue &v, const std::string &path,
            model::GpuSpec *out, std::string *error)
{
    if (v.isString()) {
        const std::string &name = v.asString();
        if (!model::tryGpuByName(name, out)) {
            if (error != nullptr)
                *error = "\"" + path + "\" unknown gpu preset \"" +
                         name + "\"; known: " +
                         model::gpuPresetNames() +
                         " (or a full gpu object)";
            return false;
        }
        return true;
    }
    sim::JsonObjectReader r(v, path, error);
    r.getString("name", &out->name);
    r.getDouble("fp16_flops", &out->fp16Flops);
    r.getDouble("mem_bandwidth", &out->memBandwidth);
    r.getInt64("mem_bytes", &out->memBytes);
    r.getDouble("pcie_bandwidth", &out->pcieBandwidth);
    r.getDouble("pcie_setup_seconds", &out->pcieSetupSeconds);
    return r.finish();
}

bool
costFromJson(const JsonValue &v, const std::string &path,
             model::CostParams *out, std::string *error)
{
    sim::JsonObjectReader r(v, path, error);
    r.getDouble("compute_util", &out->computeUtil);
    r.getDouble("mem_util", &out->memUtil);
    r.getDouble("prefill_fixed_ms", &out->prefillFixedMs);
    r.getDouble("mbgmm_fixed_ms", &out->mbgmmFixedMs);
    r.getDouble("lora_ineff", &out->loraIneff);
    r.getDouble("decode_fixed_ms", &out->decodeFixedMs);
    r.getDouble("decode_req_us", &out->decodeReqUs);
    r.getDouble("mbgmv_fixed_ms", &out->mbgmvFixedMs);
    r.getDouble("decode_rank_us", &out->decodeRankUs);
    r.getDouble("tp_sync_ms", &out->tpSyncMs);
    r.getDouble("tp_eff_loss_per_log2", &out->tpEffLossPerLog2);
    return r.finish();
}

bool
schedulerFromJson(const JsonValue &v, const std::string &path,
                  SchedulerSpec *out, std::string *error)
{
    sim::JsonObjectReader r(v, path, error);
    r.getEnum("policy", &out->policy, schedulerPolicyByName,
              "fifo, sjf, mlq, wfq, drr");
    r.getDouble("sjf_aging_per_second", &out->sjfAgingPerSecond);
    r.getDouble("slo_seconds", &out->sloSeconds);
    getSeconds(r, "refresh_period_s", &out->refreshPeriod);
    r.getBool("bypass", &out->bypass);
    r.getBool("dynamic_queues", &out->dynamicQueues);
    r.getEnum("wrs_form", &out->wrsForm, wrsFormByName,
              "degree2, degree1, output-only");
    return r.finish();
}

bool
adaptersFromJson(const JsonValue &v, const std::string &path,
                 AdapterSpec *out, std::string *error)
{
    sim::JsonObjectReader r(v, path, error);
    r.getEnum("policy", &out->policy, adapterPolicyByName,
              "on-demand, slora, chameleon-cache");
    r.getEnum("eviction", &out->eviction, evictionPolicyByName,
              "chameleon, lru, fairshare, gdsf");
    r.getBool("predictive_prefetch", &out->predictivePrefetch);
    r.getSize("prefetch_top_k", &out->prefetchTopK);
    return r.finish();
}

/**
 * Apply an "engine" JSON object onto *out (missing keys keep existing
 * values). `path` prefixes error key paths. Accepts the string
 * shorthands "model": "llama-7b" and "gpu": "a40" | "a100" |
 * "a100-<GiB>" as well as the full field-by-field objects.
 */
bool
engineFromJson(const JsonValue &obj, const std::string &path,
               serving::EngineConfig *out, std::string *error)
{
    sim::JsonObjectReader r(obj, path, error);
    if (const JsonValue *m = r.child("model")) {
        if (!modelFromJson(*m, path + ".model", &out->model, error))
            return false;
    }
    if (const JsonValue *g = r.child("gpu")) {
        if (!gpuFromJson(*g, path + ".gpu", &out->gpu, error))
            return false;
    }
    r.getInt("tp_degree", &out->tpDegree);
    if (const JsonValue *c = r.child("cost")) {
        if (!costFromJson(*c, path + ".cost", &out->cost, error))
            return false;
    }
    r.getInt64("workspace_per_gpu", &out->workspacePerGpu);
    r.getInt64("admission_token_budget", &out->admissionTokenBudget);
    r.getInt64("max_new_tokens", &out->maxNewTokens);
    r.getInt("max_admissions_per_iter", &out->maxAdmissionsPerIter);
    r.getInt("max_running", &out->maxRunning);
    r.getInt("kv_page_tokens", &out->kvPageTokens);
    getSeconds(r, "mem_sample_period_s", &out->memSamplePeriod);
    return r.finish();
}

/** Apply a "predictor" JSON object onto *out; as engineFromJson. */
bool
predictorFromJson(const JsonValue &obj, const std::string &path,
                  PredictorSpec *out, std::string *error)
{
    sim::JsonObjectReader r(obj, path, error);
    r.getString("kind", &out->kind);
    r.getDouble("accuracy", &out->accuracy);
    r.getUint64("seed", &out->seed);
    return r.finish();
}

/** An array of numbers; empty allowed (= "use the defaults"). */
bool
numberList(sim::JsonObjectReader &r, const std::string &key,
           std::vector<double> *out)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, "expects an array of numbers");
    out->clear();
    for (const auto &item : v->items()) {
        if (!item.isNumber())
            return r.fail(key, "expects an array of numbers");
        out->push_back(item.asNumber());
    }
    return true;
}

bool
tenancyFromJson(const JsonValue &v, const std::string &path,
                TenancySpec *out, std::string *error)
{
    sim::JsonObjectReader r(v, path, error);
    r.getInt("tenants", &out->tenants);
    if (!numberList(r, "weights", &out->weights))
        return false;
    if (!numberList(r, "slo_multipliers", &out->sloMultipliers))
        return false;
    r.getInt64("drr_quantum_tokens", &out->drrQuantumTokens);
    return r.finish();
}

bool autoscalerFromJson(const JsonValue &obj, const std::string &path,
                        routing::AutoscalerConfig *out, std::string *error);

bool
clusterFromJson(const JsonValue &v, const std::string &path,
                const serving::EngineConfig &baseEngine, ClusterSpec *out,
                std::string *error)
{
    sim::JsonObjectReader r(v, path, error);
    // "replicas" is polymorphic: an integer count (homogeneous fleet,
    // every replica from the top-level "engine") or an ordered array
    // of per-replica engine overrides applied onto that base engine.
    // "fleet" is a shorthand for the array form: a GPU-mix preset like
    // "a100x2+a40x2" expands to one base-engine replica per GPU.
    const JsonValue *replicas = r.child("replicas");
    const JsonValue *fleet = r.child("fleet");
    if (replicas != nullptr && fleet != nullptr) {
        return r.fail("fleet",
                      "conflicts with \"" + path +
                          ".replicas\"; the fleet preset already "
                          "defines the replica count and GPU mix");
    }
    if (replicas != nullptr) {
        if (replicas->isArray()) {
            if (replicas->items().empty()) {
                return r.fail("replicas",
                              "must not be an empty array; use an "
                              "integer count for a homogeneous fleet");
            }
            out->replicaEngines.clear();
            for (std::size_t i = 0; i < replicas->items().size(); ++i) {
                const JsonValue &entry = replicas->items()[i];
                std::ostringstream entryPath;
                entryPath << path << ".replicas[" << i << "]";
                serving::EngineConfig cfg = baseEngine;
                if (entry.isString()) {
                    // Bare string = GPU-preset shorthand.
                    if (!model::tryGpuByName(entry.asString(),
                                             &cfg.gpu)) {
                        if (error != nullptr)
                            *error = "\"" + entryPath.str() +
                                     "\" unknown gpu preset \"" +
                                     entry.asString() + "\"; known: " +
                                     model::gpuPresetNames() +
                                     " (or an engine-override object)";
                        return false;
                    }
                } else if (!engineFromJson(entry, entryPath.str(), &cfg,
                                           error)) {
                    return false;
                }
                out->replicaEngines.push_back(std::move(cfg));
            }
            out->replicas =
                static_cast<int>(out->replicaEngines.size());
        } else if (replicas->isNumber() && replicas->isIntegral() &&
                   !replicas->isUnsignedIntegral() &&
                   replicas->asInt() >=
                       std::numeric_limits<int>::min() &&
                   replicas->asInt() <=
                       std::numeric_limits<int>::max()) {
            out->replicas = static_cast<int>(replicas->asInt());
        } else {
            return r.fail("replicas",
                          "expects an integer count or an array of "
                          "per-replica engine overrides");
        }
    }
    if (fleet != nullptr) {
        if (!fleet->isString()) {
            return r.fail("fleet", "expects a fleet-preset string: " +
                                       model::fleetGrammarHelp());
        }
        std::vector<model::GpuSpec> gpus;
        if (!model::tryFleetByName(fleet->asString(), &gpus)) {
            return r.fail("fleet", "unknown fleet preset \"" +
                                       fleet->asString() +
                                       "\"; expected " +
                                       model::fleetGrammarHelp());
        }
        out->replicaEngines = serving::fleetEngines(baseEngine, gpus);
        out->replicas = static_cast<int>(out->replicaEngines.size());
    }
    r.getEnum("router", &out->router, routing::routerPolicyByName,
              routing::routerPolicyNames());
    if (const JsonValue *rc = r.child("router_config")) {
        sim::JsonObjectReader rr(*rc, path + ".router_config", error);
        rr.getUint64("seed", &out->routerConfig.seed);
        rr.getInt("virtual_nodes", &out->routerConfig.virtualNodes);
        rr.getDouble("spill_load_factor",
                     &out->routerConfig.spillLoadFactor);
        rr.getInt64("spill_margin", &out->routerConfig.spillMargin);
        rr.getBool("slo_admission", &out->routerConfig.sloAdmission);
        if (!rr.finish())
            return false;
    }
    r.getBool("autoscale", &out->autoscale);
    if (const JsonValue *as = r.child("autoscaler")) {
        if (!autoscalerFromJson(*as, path + ".autoscaler",
                                &out->autoscaler, error))
            return false;
    }
    return r.finish();
}

} // namespace

JsonValue
specToJsonValue(const SystemSpec &spec)
{
    JsonValue root = JsonValue::makeObject();
    root.set("name", JsonValue::makeString(spec.name));
    root.set("engine", engineToJson(spec.engine));
    root.set("scheduler", schedulerToJson(spec.scheduler));
    root.set("adapters", adaptersToJson(spec.adapters));
    root.set("predictor", predictorToJson(spec.predictor));
    root.set("cluster", clusterToJson(spec.cluster));
    root.set("tenancy", tenancyToJson(spec.tenancy));
    root.set("fabric", fabricToJson(spec.fabric));
    root.set("reservation",
             JsonValue::makeString(reservationPolicyName(spec.reservation)));
    root.set("chunked_prefill", JsonValue::makeBool(spec.chunkedPrefill));
    root.set("chunk_tokens", JsonValue::makeInt(spec.chunkTokens));
    return root;
}

std::string
specToJson(const SystemSpec &spec)
{
    return specToJsonValue(spec).dump();
}

namespace {

bool
fabricFromJson(const JsonValue &obj, const std::string &path,
               FabricSpec *out, std::string *error)
{
    sim::JsonObjectReader r(obj, path, error);
    r.getEnum("migration", &out->migration,
              fabric::migrationPolicyByName,
              fabric::migrationPolicyNames());
    r.getEnum("topology", &out->topology, fabric::topologyByName,
              fabric::topologyNames());
    r.getSize("top_k", &out->topK);
    return r.finish();
}

bool
autoscalerFromJson(const JsonValue &obj, const std::string &path,
                   routing::AutoscalerConfig *out, std::string *error)
{
    sim::JsonObjectReader r(obj, path, error);
    r.getSize("min_replicas", &out->minReplicas);
    r.getSize("max_replicas", &out->maxReplicas);
    r.getDouble("eval_period_s", &out->evalPeriodSeconds);
    r.getDouble("high_watermark", &out->highWatermark);
    r.getDouble("low_watermark", &out->lowWatermark);
    r.getDouble("forecast_horizon_s", &out->forecastHorizonSeconds);
    r.getDouble("forecast_window_s", &out->forecastWindowSeconds);
    r.getDouble("replica_service_rps", &out->replicaServiceRps);
    r.getInt("up_cooldown_periods", &out->upCooldownPeriods);
    r.getInt("down_cooldown_periods", &out->downCooldownPeriods);
    r.getDouble("boot_ms", &out->bootMs);
    r.getEnum("scale_up_policy", &out->scaleUpPolicy,
              routing::scaleUpPolicyByName, routing::scaleUpPolicyNames());
    r.getDouble("measured_rate_alpha", &out->measuredRateAlpha);
    r.getBool("boot_aware_horizon", &out->bootAwareHorizon);
    return r.finish();
}

/** Uniform "spec json: " prefix on whatever a nested reader wrote. */
std::optional<SystemSpec>
specParseFailure(std::string *error)
{
    if (error != nullptr && error->rfind("spec json:", 0) != 0)
        *error = "spec json: " + *error;
    return std::nullopt;
}

} // namespace

std::optional<SystemSpec>
specFromJsonValue(const JsonValue &root, std::string *error)
{
    SystemSpec spec;
    // The documented parse base: the paper testbed's hardware under the
    // default (full Chameleon) axes, so `{}` is a runnable config.
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();

    sim::JsonObjectReader r(root, "", error);
    r.getString("name", &spec.name);
    if (const JsonValue *e = r.child("engine")) {
        if (!engineFromJson(*e, "engine", &spec.engine, error))
            return specParseFailure(error);
    }
    if (const JsonValue *s = r.child("scheduler")) {
        if (!schedulerFromJson(*s, "scheduler", &spec.scheduler, error))
            return specParseFailure(error);
    }
    if (const JsonValue *a = r.child("adapters")) {
        if (!adaptersFromJson(*a, "adapters", &spec.adapters, error))
            return specParseFailure(error);
    }
    if (const JsonValue *p = r.child("predictor")) {
        if (!predictorFromJson(*p, "predictor", &spec.predictor, error))
            return specParseFailure(error);
    }
    // Parsed after "engine" on purpose: per-replica overrides in
    // "cluster.replicas"/"cluster.fleet" apply onto the parsed base
    // engine, wherever the keys appeared in the document.
    if (const JsonValue *c = r.child("cluster")) {
        if (!clusterFromJson(*c, "cluster", spec.engine, &spec.cluster,
                             error))
            return specParseFailure(error);
    }
    if (const JsonValue *t = r.child("tenancy")) {
        if (!tenancyFromJson(*t, "tenancy", &spec.tenancy, error))
            return specParseFailure(error);
    }
    if (const JsonValue *f = r.child("fabric")) {
        if (!fabricFromJson(*f, "fabric", &spec.fabric, error))
            return specParseFailure(error);
    }
    r.getEnum("reservation", &spec.reservation, reservationPolicyByName,
              "auto, max-tokens, predicted");
    r.getBool("chunked_prefill", &spec.chunkedPrefill);
    r.getInt64("chunk_tokens", &spec.chunkTokens);
    if (!r.finish())
        return specParseFailure(error);

    const auto problems = spec.validate();
    if (!problems.empty()) {
        if (error != nullptr) {
            std::ostringstream os;
            os << "spec json: \"" << spec.name
               << "\" parses but fails validation:";
            for (const auto &p : problems)
                os << "\n  - " << p;
            *error = os.str();
        }
        return std::nullopt;
    }
    return spec;
}

std::optional<SystemSpec>
specFromJson(const std::string &text, std::string *error)
{
    std::string parseError;
    auto doc = sim::parseJson(text, &parseError);
    if (!doc.has_value()) {
        if (error != nullptr)
            *error = "spec json: " + parseError;
        return std::nullopt;
    }
    return specFromJsonValue(*doc, error);
}

JsonValue
overrideValue(const std::string &text)
{
    auto literal = sim::parseJson(text);
    return literal ? std::move(*literal) : JsonValue::makeString(text);
}

namespace {

/** Write `value` at dotted `path` in the dumped spec tree `root`. */
bool
setPath(JsonValue &root, const std::string &path, const JsonValue &value,
        std::string *error)
{
    auto fail = [&](const std::string &problem) {
        if (error != nullptr)
            *error = "spec override \"" + path + "\": " + problem;
        return false;
    };
    JsonValue *node = &root;
    std::string walked; // the path above `node`
    for (std::size_t start = 0;;) {
        const std::size_t dot = path.find('.', start);
        const std::string key = path.substr(start, dot - start);
        const bool leaf = dot == std::string::npos;
        if (!node->isObject())
            return fail("\"" + walked + "\" is not an object");
        if (leaf && walked == "cluster" &&
            (key == "replicas" || key == "fleet")) {
            // The deployment is one of the two: the parse-only fleet
            // preset replaces the replica count or list, and back.
            node->erase("replicas");
            node->erase("fleet");
            node->set(key, value);
            return true;
        }
        JsonValue *child = node->find(key);
        if (child == nullptr) {
            std::string known;
            for (const auto &member : node->members())
                known += (known.empty() ? "" : ", ") + member.first;
            if (walked == "cluster")
                known += ", fleet"; // parse-only, so never dumped
            return fail("no key \"" + key + "\" " +
                        (walked.empty() ? "at the top level"
                                        : "under \"" + walked + "\"") +
                        "; known: " + known);
        }
        if (leaf) {
            *child = value;
            return true;
        }
        walked += (walked.empty() ? "" : ".") + key;
        node = child;
        start = dot + 1;
    }
}

} // namespace

std::optional<SystemSpec>
applySpecOverrides(const SystemSpec &base, const SpecOverrides &overrides,
                   std::string *error)
{
    JsonValue root = specToJsonValue(base);
    for (const auto &[path, value] : overrides) {
        if (!setPath(root, path, value, error))
            return std::nullopt;
    }
    return specFromJsonValue(root, error);
}

bool
checkOverridesTakeEffect(const SystemSpec &spec,
                         const SpecOverrides &overrides, std::string *error)
{
    const std::string migrationOn =
        std::string("fabric.migration other than off (known: ") +
        fabric::migrationPolicyNames() + ")";
    // {path prefix, does the resolved spec ignore it, what it needs}
    const std::tuple<const char *, bool, std::string> guards[] = {
        {"cluster.router",
         spec.cluster.replicas <= 1 && !spec.cluster.autoscale,
         "a cluster to route: cluster.replicas > 1 (--replicas, "
         "--fleet) or cluster.autoscale=true"},
        {"cluster.autoscaler.", !spec.cluster.autoscale,
         "cluster.autoscale=true"},
        {"fabric.topology", !spec.fabric.enabled(), migrationOn},
        {"fabric.top_k", !spec.fabric.enabled(), migrationOn},
    };
    for (const auto &override : overrides) {
        for (const auto &[prefix, ignored, needs] : guards) {
            if (!ignored || override.first.rfind(prefix, 0) != 0)
                continue;
            if (error != nullptr)
                *error = "spec override \"" + override.first +
                         "\" has no effect: it needs " + needs;
            return false;
        }
    }
    return true;
}

} // namespace chameleon::core
