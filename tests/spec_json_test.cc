/**
 * @file
 * Tests for SystemSpec <-> JSON serialisation (spec_json.h):
 *  - round-trip stability: print -> parse -> operator== for every
 *    registry name, composed grammar specs, and randomly generated
 *    valid specs (property test);
 *  - partial configs: missing keys keep defaults, `{}` is the paper
 *    testbed's full Chameleon;
 *  - strict rejection: unknown keys, type mismatches, bad enum values,
 *    and validate() contradictions all name the offending key;
 *  - `path=value` overrides (applySpecOverrides, the path behind
 *    `chameleon_sim --set` and sweep axes): the same strictness, the
 *    parse-only fleet, the CLI's no-effect guard table, and a
 *    property test setting every dumped leaf to its own value;
 *  - pinned dump hashes, and SystemSpec::operator== distinguishing a
 *    change to every dumped leaf;
 *  - leaf mutation: every numeric leaf at 0 and -1 is either rejected
 *    naming it, or runs a short trace to completion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/spec_json.h"
#include "chameleon/system.h"
#include "chameleon/system_registry.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/rng.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

core::SystemSpec
roundTrip(const core::SystemSpec &spec)
{
    std::string error;
    const auto parsed = core::specFromJson(core::specToJson(spec), &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return parsed.value_or(core::SystemSpec{});
}

/** Raise `engine`'s tensor-parallel degree until its GPUs hold the
 * model's weights, the workspace and one token's KV cache. */
void
fitMemory(serving::EngineConfig &engine)
{
    const auto left = [&engine] {
        return engine.tpDegree * engine.gpu.memBytes -
               engine.model.weightsBytes() -
               engine.tpDegree * engine.workspacePerGpu -
               engine.model.kvBytesPerToken();
    };
    while (left() < 0)
        ++engine.tpDegree;
}

/** A random *valid* spec: contradictory knob pairs are kept coherent. */
core::SystemSpec
randomSpec(sim::Rng &rng)
{
    core::SystemSpec spec;
    spec.name = "random-" + std::to_string(rng.nextBelow(1u << 20));

    switch (rng.nextBelow(4)) {
      case 0: spec.engine.model = model::llama7B(); break;
      case 1: spec.engine.model = model::llama13B(); break;
      case 2: spec.engine.model = model::llama30B(); break;
      default: spec.engine.model = model::llama70B(); break;
    }
    spec.engine.gpu = rng.nextBelow(2) ? model::a40()
                                       : model::a100(rng.nextBelow(2)
                                                         ? 48
                                                         : 80);
    spec.engine.tpDegree = 1 + static_cast<int>(rng.nextBelow(4));
    spec.engine.workspacePerGpu =
        (1ll + static_cast<std::int64_t>(rng.nextBelow(8))) << 30;
    spec.engine.cost.loraIneff = 10.0 + rng.nextDouble() * 50.0;
    spec.engine.cost.tpSyncMs = rng.nextDouble() * 20.0;
    fitMemory(spec.engine);

    const core::SchedulerPolicy schedulers[] = {
        core::SchedulerPolicy::Fifo, core::SchedulerPolicy::Sjf,
        core::SchedulerPolicy::Mlq};
    spec.scheduler.policy = schedulers[rng.nextBelow(3)];
    spec.scheduler.sloSeconds = 1.0 + rng.nextDouble() * 9.0;
    spec.scheduler.refreshPeriod =
        static_cast<sim::SimTime>(60 + rng.nextBelow(600)) * sim::kSec;
    spec.scheduler.bypass = rng.nextBelow(2) != 0;
    spec.scheduler.dynamicQueues = rng.nextBelow(2) != 0;
    const core::WrsForm forms[] = {core::WrsForm::Degree2,
                                   core::WrsForm::Degree1,
                                   core::WrsForm::OutputOnly};
    spec.scheduler.wrsForm = forms[rng.nextBelow(3)];

    if (rng.nextBelow(2)) {
        spec.adapters.policy = core::AdapterPolicy::ChameleonCache;
        const auto &evictions = core::evictionPolicyTable().entries();
        spec.adapters.eviction =
            evictions[rng.nextBelow(evictions.size())].value;
        if (rng.nextBelow(2)) {
            spec.adapters.predictivePrefetch = true;
            spec.adapters.prefetchTopK = 1 + rng.nextBelow(16);
        }
    } else {
        spec.adapters.policy = rng.nextBelow(2)
                                   ? core::AdapterPolicy::SLora
                                   : core::AdapterPolicy::OnDemand;
    }

    spec.predictor.kind = rng.nextBelow(2) ? "bert" : "history";
    spec.predictor.accuracy = rng.nextDouble();
    spec.predictor.seed = rng();

    spec.cluster.replicas = 1 + static_cast<int>(rng.nextBelow(6));
    // Heterogeneous dimension: a third of the specs deploy a mixed
    // fleet with per-replica engine overrides.
    if (rng.nextBelow(3) == 0) {
        for (int i = 0; i < spec.cluster.replicas; ++i) {
            serving::EngineConfig cfg = spec.engine;
            cfg.gpu = rng.nextBelow(2)
                          ? model::a40()
                          : model::a100(rng.nextBelow(2) ? 48 : 80);
            cfg.maxRunning = 64 + static_cast<int>(rng.nextBelow(256));
            cfg.cost.tpSyncMs = rng.nextDouble() * 20.0;
            fitMemory(cfg);
            spec.cluster.replicaEngines.push_back(std::move(cfg));
        }
    }
    const routing::RouterPolicy routers[] = {
        routing::RouterPolicy::RoundRobin,
        routing::RouterPolicy::JoinShortestQueue,
        routing::RouterPolicy::PowerOfTwoChoices,
        routing::RouterPolicy::AdapterAffinity,
        routing::RouterPolicy::AdapterAffinityDirectory};
    spec.cluster.router = routers[rng.nextBelow(5)];
    spec.cluster.routerConfig.seed = rng();
    if (rng.nextBelow(2)) {
        spec.cluster.autoscale = true;
        spec.cluster.autoscaler.minReplicas = 1 + rng.nextBelow(3);
        spec.cluster.autoscaler.maxReplicas =
            spec.cluster.autoscaler.minReplicas + rng.nextBelow(6);
        spec.cluster.autoscaler.replicaServiceRps =
            rng.nextDouble() * 20.0;
        spec.cluster.autoscaler.bootMs = rng.nextDouble() * 30000.0;
        spec.cluster.autoscaler.scaleUpPolicy =
            rng.nextBelow(2) ? routing::ScaleUpPolicy::Fastest
                             : routing::ScaleUpPolicy::Default;
        spec.cluster.autoscaler.measuredRateAlpha = rng.nextDouble();
    }

    const core::ReservationPolicy reservations[] = {
        core::ReservationPolicy::Auto, core::ReservationPolicy::MaxTokens,
        core::ReservationPolicy::Predicted};
    spec.reservation = reservations[rng.nextBelow(3)];
    if (rng.nextBelow(2)) {
        spec.chunkedPrefill = true;
        spec.chunkTokens = 16 + static_cast<std::int64_t>(
                                    rng.nextBelow(512));
    }
    return spec;
}

std::string
parseError(const std::string &text)
{
    std::string error;
    const auto parsed = core::specFromJson(text, &error);
    EXPECT_FALSE(parsed.has_value()) << text;
    return error;
}

} // namespace

// ---------------------------------------------------------------------
// Round-trip stability.
// ---------------------------------------------------------------------

TEST(SpecJson, RoundTripsEveryRegistryName)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names()) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        EXPECT_EQ(roundTrip(spec), spec) << name;
    }
}

TEST(SpecJson, RoundTripsComposedGrammarSpecs)
{
    const auto &registry = core::SystemRegistry::global();
    for (const char *name :
         {"chameleon+gdsf+prefetch", "slora+sjf+cache",
          "chameleon+history+nobypass+static", "slora+chunked128"}) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        EXPECT_EQ(roundTrip(spec), spec) << name;
    }
}

TEST(SpecJson, RoundTripsRandomValidSpecs)
{
    sim::Rng rng(0xDECAF);
    for (int i = 0; i < 100; ++i) {
        const auto spec = randomSpec(rng);
        ASSERT_TRUE(spec.validate().empty())
            << "generator produced an invalid spec at iteration " << i;
        const auto back = roundTrip(spec);
        EXPECT_EQ(back, spec) << "iteration " << i << "\n"
                              << core::specToJson(spec);
    }
}

TEST(SpecJson, ClusterDeploymentSurvivesRoundTrip)
{
    auto spec = core::SystemRegistry::global().lookup("chameleon+gdsf");
    spec.engine.model = model::llama13B();
    spec.engine.gpu = model::a100(80);
    spec.cluster.replicas = 4;
    spec.cluster.router = routing::RouterPolicy::AdapterAffinity;
    spec.cluster.routerConfig.seed = 0xFEEDFACECAFEBEEFull;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 2;
    spec.cluster.autoscaler.maxReplicas = 6;
    spec.cluster.autoscaler.replicaServiceRps = 8.5;
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
}

TEST(SpecJson, AutoscalerRealismKnobsSurviveRoundTrip)
{
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.replicaServiceRps = 8.5;
    spec.cluster.autoscaler.bootMs = 12500.0;
    spec.cluster.autoscaler.scaleUpPolicy =
        routing::ScaleUpPolicy::Fastest;
    spec.cluster.autoscaler.measuredRateAlpha = 0.25;
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
    // Textual stability (the --dump-config | --config - contract).
    const auto text = core::specToJson(spec);
    const auto parsed = core::specFromJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(core::specToJson(*parsed), text);
    // The keys parse from hand-written JSON too, not only from dumps.
    const auto fromText = core::specFromJson(
        R"({"cluster": {"replicas": 2, "autoscale": true, "autoscaler":)"
        R"( {"boot_ms": 4000, "scale_up_policy": "fastest",)"
        R"(  "measured_rate_alpha": 0.5}}})");
    ASSERT_TRUE(fromText.has_value());
    EXPECT_EQ(fromText->cluster.autoscaler.bootMs, 4000.0);
    EXPECT_EQ(fromText->cluster.autoscaler.scaleUpPolicy,
              routing::ScaleUpPolicy::Fastest);
    EXPECT_EQ(fromText->cluster.autoscaler.measuredRateAlpha, 0.5);
}

TEST(SpecJson, RejectsMalformedAutoscalerRealismKnobs)
{
    // Unknown enum value: the error names the path and the options.
    const auto policy = parseError(
        R"({"cluster": {"autoscaler": {"scale_up_policy": "warp"}}})");
    EXPECT_NE(policy.find("cluster.autoscaler.scale_up_policy"),
              std::string::npos)
        << policy;
    EXPECT_NE(policy.find("fastest"), std::string::npos) << policy;
    // Type mismatch on boot_ms.
    const auto boot = parseError(
        R"({"cluster": {"autoscaler": {"boot_ms": "soon"}}})");
    EXPECT_NE(boot.find("cluster.autoscaler.boot_ms"),
              std::string::npos)
        << boot;
    // Out-of-domain values parse but fail validation, naming the knob.
    const auto negativeBoot = parseError(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "autoscaler": {"boot_ms": -1}}})");
    EXPECT_NE(negativeBoot.find("cluster.autoscaler.boot_ms"),
              std::string::npos)
        << negativeBoot;
    const auto alpha = parseError(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "autoscaler": {"measured_rate_alpha": 1.5}}})");
    EXPECT_NE(alpha.find("cluster.autoscaler.measured_rate_alpha"),
              std::string::npos)
        << alpha;
}

TEST(SpecJson, ClosedLoopKnobsSurviveRoundTrip)
{
    // The closed-loop control-plane knobs: measured_rate_alpha (which
    // also turns on measured demand), boot_aware_horizon and
    // slo_admission all round-trip with every knob switched on.
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.measuredRateAlpha = 0.25;
    spec.cluster.autoscaler.bootAwareHorizon = true;
    spec.cluster.routerConfig.sloAdmission = true;
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
    const auto text = core::specToJson(spec);
    EXPECT_NE(text.find("\"measured_rate_alpha\": 0.25"),
              std::string::npos);
    EXPECT_NE(text.find("\"boot_aware_horizon\": true"),
              std::string::npos);
    EXPECT_NE(text.find("\"slo_admission\": true"), std::string::npos);
    // Textual stability (the --dump-config | --config - contract).
    const auto parsed = core::specFromJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(core::specToJson(*parsed), text);
    // Hand-written JSON parses too, not only dumps.
    const auto fromText = core::specFromJson(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "router_config": {"slo_admission": true}, "autoscaler":)"
        R"( {"measured_rate_alpha": 0.2, "boot_aware_horizon": true}}})");
    ASSERT_TRUE(fromText.has_value());
    EXPECT_EQ(fromText->cluster.autoscaler.measuredRateAlpha, 0.2);
    EXPECT_TRUE(fromText->cluster.autoscaler.bootAwareHorizon);
    EXPECT_TRUE(fromText->cluster.routerConfig.sloAdmission);
}

TEST(SpecJson, RejectsUnknownDemandSourceListingTheOptions)
{
    // measured_rate_alpha > 0 is the measured demand source; the old
    // demand_source key is unknown, whatever its value, so a config
    // that still carries it fails instead of silently running on the
    // alpha alone.
    for (const char *value : {"measured", "nominal", "psychic"}) {
        const auto error = parseError(
            std::string(R"({"cluster": {"autoscaler": )") +
            R"({"demand_source": ")" + value + R"("}}})");
        EXPECT_NE(error.find("cluster.autoscaler.demand_source"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("not a recognised key"), std::string::npos)
            << error;
    }
    // The --set path lists the keys that remain, the alpha among them.
    std::string error;
    EXPECT_FALSE(core::applySpecOverrides(
                     core::presets::chameleon(),
                     {{"cluster.autoscaler.demand_source",
                       sim::JsonValue::makeString("measured")}},
                     &error)
                     .has_value());
    EXPECT_NE(error.find("no key \"demand_source\""), std::string::npos)
        << error;
    EXPECT_NE(error.find("measured_rate_alpha"), std::string::npos)
        << error;
}

TEST(SpecJson, RejectsTheEngineKeysTheRunnerDerives)
{
    // predicted_reservation and prefill_chunk_tokens are derived from
    // `reservation` and `chunked_prefill`/`chunk_tokens` when an engine
    // is built, so a copy in the spec would be a dead knob. They are
    // neither printed nor accepted, at the top level or per replica.
    const auto text = core::specToJson(core::presets::chameleon());
    EXPECT_EQ(text.find("predicted_reservation"), std::string::npos);
    EXPECT_EQ(text.find("prefill_chunk_tokens"), std::string::npos);
    const std::pair<const char *, const char *> cases[] = {
        {R"({"engine": {"predicted_reservation": true}})",
         "engine.predicted_reservation"},
        {R"({"engine": {"prefill_chunk_tokens": 64}})",
         "engine.prefill_chunk_tokens"},
        {R"({"cluster": {"replicas": [{"prefill_chunk_tokens": 64}]}})",
         "cluster.replicas[0].prefill_chunk_tokens"},
        {R"({"cluster": {"replicas": [{"predicted_reservation": true}]}})",
         "cluster.replicas[0].predicted_reservation"},
    };
    for (const auto &[json, path] : cases) {
        const auto error = parseError(json);
        EXPECT_NE(error.find(path), std::string::npos) << error;
        EXPECT_NE(error.find("not a recognised key"), std::string::npos)
            << error;
    }
}

TEST(SpecJson, HeteroFleetRoundTripsBitIdentically)
{
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = 3;
    spec.cluster.router = routing::RouterPolicy::PowerOfTwoChoices;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    serving::EngineConfig slow = spec.engine;
    slow.maxRunning = 128;
    spec.cluster.replicaEngines = {fast, fast, slow};
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
    // The textual form is stable too: print -> parse -> print is
    // byte-identical (the --dump-config | --config - contract).
    const auto text = core::specToJson(spec);
    const auto parsed = core::specFromJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(core::specToJson(*parsed), text);
}

namespace {

/** An autoscaled heterogeneous fleet with peer migration on. */
core::SystemSpec
fabricFleetSpec()
{
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.withFleet({model::a100(48), model::a40()},
                   routing::RouterPolicy::AdapterAffinityDirectory);
    spec.named("fabric-fleet");
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.maxReplicas = 4;
    spec.cluster.autoscaler.bootMs = 8000.0;
    spec.cluster.autoscaler.scaleUpPolicy =
        routing::ScaleUpPolicy::Fastest;
    spec.fabric.migration = fabric::MigrationPolicy::All;
    spec.fabric.topology = fabric::TopologyKind::NvLink;
    return spec;
}

std::uint64_t
dumpHash(const core::SystemSpec &spec)
{
    return core::fnv1a64(core::specToJson(spec));
}

} // namespace

TEST(SpecJson, DumpsArePinned)
{
    // Every dump byte is part of the --dump-config | --config contract;
    // a changed key name, order or number format moves these hashes.
    const auto empty = core::specFromJson("{}");
    ASSERT_TRUE(empty.has_value());
    EXPECT_EQ(dumpHash(*empty), 0x91f97fb4cfc48f74ull);
    EXPECT_EQ(dumpHash(fabricFleetSpec()), 0x1b7894db44adce15ull);

    const std::pair<const char *, std::uint64_t> pins[] = {
        {"chameleon", 0x397fbedf7ec89605ull},
        {"chameleon-degree1", 0x5910122d4b02c9daull},
        {"chameleon-nocache", 0x241102fc6eb54e3full},
        {"chameleon-nosched", 0x24eedfbd30e9442eull},
        {"chameleon-output-only", 0xcb073848357b8444ull},
        {"slora", 0x95a5b3503d92eee2ull},
        {"slora-sjf", 0x6350aeb04fd14badull},
    };
    const auto &registry = core::SystemRegistry::global();
    ASSERT_EQ(registry.names().size(), std::size(pins));
    for (const auto &[name, hash] : pins) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        EXPECT_EQ(dumpHash(spec), hash) << name;
    }
}

// ---------------------------------------------------------------------
// Partial configs apply onto defaults.
// ---------------------------------------------------------------------

TEST(SpecJson, EmptyObjectIsTheDefaultTestbedSpec)
{
    std::string error;
    const auto parsed = core::specFromJson("{}", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    core::SystemSpec expected;
    expected.engine.model = model::llama7B();
    expected.engine.gpu = model::a40();
    EXPECT_EQ(*parsed, expected);
}

TEST(SpecJson, PartialConfigKeepsUnmentionedDefaults)
{
    const auto parsed = core::specFromJson(
        R"({"name": "mine", "scheduler": {"policy": "fifo"},)"
        R"( "adapters": {"eviction": "gdsf"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->name, "mine");
    EXPECT_EQ(parsed->scheduler.policy, core::SchedulerPolicy::Fifo);
    EXPECT_EQ(parsed->adapters.eviction, core::EvictionKind::Gdsf);
    // Untouched axes keep their defaults.
    EXPECT_EQ(parsed->adapters.policy,
              core::AdapterPolicy::ChameleonCache);
    EXPECT_EQ(parsed->cluster.replicas, 1);
    EXPECT_EQ(parsed->scheduler.sloSeconds, 5.0);
}

TEST(SpecJson, AcceptsModelAndGpuShorthands)
{
    const auto parsed = core::specFromJson(
        R"({"engine": {"model": "llama-13b", "gpu": "a100-48"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->engine.model, model::llama13B());
    EXPECT_EQ(parsed->engine.gpu, model::a100(48));
}

TEST(SpecJson, ClusterReplicaOverridesApplyOntoTheBaseEngine)
{
    // "cluster.replicas" as an array: each entry (engine-override
    // object or GPU-preset string) applies onto the parsed base
    // engine, wherever the keys appear in the document.
    const auto parsed = core::specFromJson(
        R"({"cluster": {"replicas":)"
        R"( ["a100-48", {"gpu": "a100", "max_running": 64}]},)"
        R"( "engine": {"model": "llama-13b"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cluster.replicas, 2);
    ASSERT_EQ(parsed->cluster.replicaEngines.size(), 2u);
    EXPECT_EQ(parsed->cluster.replicaEngines[0].gpu, model::a100(48));
    // Base-engine fields survive under the override...
    EXPECT_EQ(parsed->cluster.replicaEngines[0].model,
              model::llama13B());
    EXPECT_EQ(parsed->cluster.replicaEngines[1].model,
              model::llama13B());
    // ...and any EngineConfig knob can differ per replica.
    EXPECT_EQ(parsed->cluster.replicaEngines[1].gpu, model::a100(80));
    EXPECT_EQ(parsed->cluster.replicaEngines[1].maxRunning, 64);
}

TEST(SpecJson, FleetShorthandExpandsToPerReplicaEngines)
{
    const auto parsed = core::specFromJson(
        R"({"cluster": {"fleet": "a100x2+a40x1"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cluster.replicas, 3);
    ASSERT_EQ(parsed->cluster.replicaEngines.size(), 3u);
    EXPECT_EQ(parsed->cluster.replicaEngines[0].gpu, model::a100(80));
    EXPECT_EQ(parsed->cluster.replicaEngines[1].gpu, model::a100(80));
    EXPECT_EQ(parsed->cluster.replicaEngines[2].gpu, model::a40());
    // The fleet is parse-time sugar: it dumps as the resolved
    // per-replica array and round-trips from there.
    EXPECT_EQ(roundTrip(*parsed), *parsed);
}

TEST(SpecJson, AcceptsLineCommentsInConfigs)
{
    const auto parsed = core::specFromJson(
        "{\n"
        "  // the GPU mix, one term per replica kind\n"
        "  \"cluster\": {\"fleet\": \"a40x2\"} // two A40s\n"
        "}\n");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cluster.replicas, 2);
}

// ---------------------------------------------------------------------
// Strict rejection with offending-key messages.
// ---------------------------------------------------------------------

TEST(SpecJson, RejectsUnknownKeysNamingThePath)
{
    const auto error =
        parseError(R"({"scheduler": {"polcy": "mlq"}})");
    EXPECT_NE(error.find("scheduler.polcy"), std::string::npos) << error;
    EXPECT_NE(error.find("not a recognised key"), std::string::npos)
        << error;

    const auto top = parseError(R"({"schedulr": {}})");
    EXPECT_NE(top.find("schedulr"), std::string::npos) << top;

    // Keys the schema no longer has (now constants) are unknown too: a
    // saved config that still holds one is rejected, naming it.
    const std::pair<const char *, const char *> deleted[] = {
        {R"({"engine": {"kv_page_tokens": 16}})", "engine.kv_page_tokens"},
        {R"({"engine": {"max_new_tokens": 512}})", "engine.max_new_tokens"},
        {R"({"engine": {"mem_sample_period_s": 1.0}})",
         "engine.mem_sample_period_s"},
        {R"({"cluster": {"router_config": {"virtual_nodes": 64}}})",
         "cluster.router_config.virtual_nodes"},
        {R"({"cluster": {"router_config": {"spill_load_factor": 1.0}}})",
         "cluster.router_config.spill_load_factor"},
        {R"({"cluster": {"router_config": {"spill_margin": 3}}})",
         "cluster.router_config.spill_margin"},
        {R"({"tenancy": {"drr_quantum_tokens": 512}})",
         "tenancy.drr_quantum_tokens"},
        {R"({"cluster": {"replicas": ["a40", {"kv_page_tokens": 16}]}})",
         "cluster.replicas[1].kv_page_tokens"},
        {R"({"cluster": {"autoscaler": {"eval_period_s": 5}}})",
         "cluster.autoscaler.eval_period_s"},
        {R"({"cluster": {"autoscaler": {"high_watermark": 24}}})",
         "cluster.autoscaler.high_watermark"},
        {R"({"cluster": {"autoscaler": {"low_watermark": 4}}})",
         "cluster.autoscaler.low_watermark"},
        {R"({"cluster": {"autoscaler": {"forecast_horizon_s": 15}}})",
         "cluster.autoscaler.forecast_horizon_s"},
        {R"({"cluster": {"autoscaler": {"forecast_window_s": 60}}})",
         "cluster.autoscaler.forecast_window_s"},
        {R"({"cluster": {"autoscaler": {"up_cooldown_periods": 1}}})",
         "cluster.autoscaler.up_cooldown_periods"},
    };
    for (const auto &[json, key] : deleted) {
        const auto rejected = parseError(json);
        EXPECT_NE(rejected.find(key), std::string::npos) << rejected;
        EXPECT_NE(rejected.find("not a recognised key"), std::string::npos)
            << rejected;
    }
}

TEST(SpecJson, RejectsTypeMismatchesNamingThePath)
{
    const auto error =
        parseError(R"({"cluster": {"replicas": "four"}})");
    EXPECT_NE(error.find("cluster.replicas"), std::string::npos) << error;
    EXPECT_NE(error.find("integer"), std::string::npos) << error;

    const auto nested = parseError(
        R"({"cluster": {"autoscaler": {"min_replicas": -1}}})");
    EXPECT_NE(nested.find("cluster.autoscaler.min_replicas"),
              std::string::npos)
        << nested;
}

TEST(SpecJson, RejectsOutOfRangeIntegers)
{
    // A value that would wrap in a 32-bit field must not silently run
    // as a different configuration.
    const auto wide =
        parseError(R"({"engine": {"tp_degree": 4294967297}})");
    EXPECT_NE(wide.find("engine.tp_degree"), std::string::npos) << wide;
    EXPECT_NE(wide.find("out of range"), std::string::npos) << wide;

    const auto negative = parseError(R"({"predictor": {"seed": -1}})");
    EXPECT_NE(negative.find("predictor.seed"), std::string::npos)
        << negative;
    EXPECT_NE(negative.find("non-negative"), std::string::npos)
        << negative;

    // uint64 max is a valid seed and round-trips...
    const auto max = core::specFromJson(
        R"({"predictor": {"seed": 18446744073709551615}})");
    ASSERT_TRUE(max.has_value());
    EXPECT_EQ(max->predictor.seed, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(roundTrip(*max), *max);
    // ...but 2^64 is out of any 64-bit range.
    const auto huge = parseError(
        R"({"predictor": {"seed": 18446744073709551616}})");
    EXPECT_NE(huge.find("64-bit range"), std::string::npos) << huge;
    // And an unsigned-only value cannot feed a signed field.
    const auto signedField = parseError(
        R"({"chunk_tokens": 18446744073709551615})");
    EXPECT_NE(signedField.find("chunk_tokens"), std::string::npos)
        << signedField;
}

TEST(SpecJson, RejectsUnknownEnumValuesListingKnownOnes)
{
    const auto error =
        parseError(R"({"adapters": {"eviction": "mru"}})");
    EXPECT_NE(error.find("adapters.eviction"), std::string::npos) << error;
    EXPECT_NE(error.find("gdsf"), std::string::npos) << error;

    const auto model_error =
        parseError(R"({"engine": {"model": "gpt-5"}})");
    EXPECT_NE(model_error.find("engine.model"), std::string::npos)
        << model_error;
    EXPECT_NE(model_error.find("llama-7b"), std::string::npos)
        << model_error;
}

TEST(SpecJson, RejectsSyntaxErrorsWithLineInfo)
{
    const auto error = parseError("{\"name\": }");
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(SpecJson, RejectsBadFleetAndReplicaOverrides)
{
    // Unknown fleet presets name the key and teach the grammar.
    const auto fleet = parseError(R"({"cluster": {"fleet": "h100x8"}})");
    EXPECT_NE(fleet.find("cluster.fleet"), std::string::npos) << fleet;
    EXPECT_NE(fleet.find("<gpu>x<count>"), std::string::npos) << fleet;
    EXPECT_NE(fleet.find("a100"), std::string::npos) << fleet;

    // A fleet beside an explicit replicas key would define the count
    // twice; one of them would silently lose.
    const auto both = parseError(
        R"({"cluster": {"fleet": "a40x2", "replicas": 2}})");
    EXPECT_NE(both.find("conflicts"), std::string::npos) << both;

    // Array entries carry their index in the error path.
    const auto gpu = parseError(
        R"({"cluster": {"replicas": ["a40", "b200"]}})");
    EXPECT_NE(gpu.find("cluster.replicas[1]"), std::string::npos) << gpu;
    EXPECT_NE(gpu.find("a100"), std::string::npos) << gpu;
    const auto key = parseError(
        R"({"cluster": {"replicas": [{"gpuz": "a40"}]}})");
    EXPECT_NE(key.find("cluster.replicas[0].gpuz"), std::string::npos)
        << key;

    // An empty list is neither a count nor a fleet.
    const auto empty = parseError(R"({"cluster": {"replicas": []}})");
    EXPECT_NE(empty.find("empty array"), std::string::npos) << empty;

    // And the count form still rejects non-integers.
    const auto type = parseError(R"({"cluster": {"replicas": 1.5}})");
    EXPECT_NE(type.find("integer count or an array"), std::string::npos)
        << type;
}

TEST(SpecValidate, ReplicaOverridesMustMatchTheReplicaCount)
{
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = 3;
    spec.cluster.replicaEngines = {spec.engine, spec.engine};
    const auto errors = spec.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("cluster.replicas"), std::string::npos)
        << errors[0];
    EXPECT_NE(errors[0].find("one override per replica"),
              std::string::npos)
        << errors[0];

    // Per-replica contradictions are named with their index.
    spec.cluster.replicaEngines.push_back(spec.engine);
    spec.cluster.replicaEngines[1].tpDegree = 0;
    const auto tpErrors = spec.validate();
    ASSERT_EQ(tpErrors.size(), 1u);
    EXPECT_NE(tpErrors[0].find("cluster.replicas[1].tp_degree"),
              std::string::npos)
        << tpErrors[0];
}

TEST(SpecJson, RejectsValidationContradictions)
{
    // Parses fine, but GDSF eviction without the cache is contradictory;
    // the validate() message comes through the JSON error channel.
    const auto error = parseError(
        R"({"adapters": {"policy": "slora", "eviction": "gdsf"}})");
    EXPECT_NE(error.find("requires the chameleon cache"),
              std::string::npos)
        << error;

    // Values that would abort, hang or admit nothing at run time are
    // rejected up front, naming the key, per replica too.
    const std::pair<const char *, const char *> cases[] = {
        {R"({"engine": {"tp_degree": 0}})", "engine.tp_degree"},
        {R"({"engine": {"tp_degree": -1}})", "engine.tp_degree"},
        {R"({"engine": {"gpu": {"mem_bytes": 0}}})", "engine.gpu.mem_bytes"},
        {R"({"engine": {"model": {"layers": 0}}})", "engine.model.layers"},
        {R"({"engine": {"cost": {"compute_util": 0}}})",
         "engine.cost.compute_util"},
        {R"({"engine": {"workspace_per_gpu": -1}})",
         "engine.workspace_per_gpu"},
        {R"({"engine": {"gpu": {"pcie_bandwidth": 0}}})",
         "engine.gpu.pcie_bandwidth"},
        {R"({"engine": {"max_running": 0}})", "engine.max_running"},
        {R"({"engine": {"max_admissions_per_iter": 0}})",
         "engine.max_admissions_per_iter"},
        {R"({"engine": {"admission_token_budget": 0}})",
         "engine.admission_token_budget"},
        {R"({"cluster": {"replicas": ["a40",)"
         R"( {"max_admissions_per_iter": 0}]}})",
         "cluster.replicas[1].max_admissions_per_iter"},
        {R"({"scheduler": {"refresh_period_s": -5}})",
         "scheduler.refresh_period_s"},
        {R"({"cluster": {"replicas": 2, "autoscale": true,)"
         R"( "autoscaler": {"down_cooldown_periods": -1}}})",
         "cluster.autoscaler.down_cooldown_periods"},
        {R"({"cluster": {"replicas": 2, "autoscale": true,)"
         R"( "autoscaler": {"replica_service_rps": -3}}})",
         "cluster.autoscaler.replica_service_rps"},
    };
    for (const auto &[json, key] : cases) {
        const auto rejected = parseError(json);
        EXPECT_NE(rejected.find(key), std::string::npos) << rejected;
    }
}

TEST(SpecValidate, MigrationNeedsPeers)
{
    auto spec = core::presets::chameleon();
    spec.fabric.migration = fabric::MigrationPolicy::All;
    const auto errors = spec.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("fabric.migration=all needs peers"),
              std::string::npos)
        << errors[0];
    spec.cluster.replicas = 2;
    EXPECT_TRUE(spec.validate().empty());
    spec.cluster.replicas = 1;
    spec.cluster.autoscale = true;
    EXPECT_TRUE(spec.validate().empty());
}

// ---------------------------------------------------------------------
// path=value overrides.
// ---------------------------------------------------------------------

namespace {

core::SystemSpec
testbedChameleon()
{
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    return spec;
}

/** "path=value" arguments as `chameleon_sim --set` splits them. */
core::SpecOverrides
sets(const std::vector<std::string> &args)
{
    core::SpecOverrides out;
    for (const auto &arg : args) {
        const auto eq = arg.find('=');
        out.emplace_back(arg.substr(0, eq),
                         core::overrideValue(arg.substr(eq + 1)));
    }
    return out;
}

std::string
overrideError(const std::vector<std::string> &args)
{
    std::string error;
    EXPECT_FALSE(
        core::applySpecOverrides(testbedChameleon(), sets(args), &error)
            .has_value());
    return error;
}

/** The guard-table verdict on `args` applied to the testbed. */
std::string
guardError(const std::vector<std::string> &args)
{
    std::string error;
    const auto overrides = sets(args);
    const auto spec =
        core::applySpecOverrides(testbedChameleon(), overrides, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    EXPECT_FALSE(core::checkOverridesTakeEffect(
        spec.value_or(core::SystemSpec{}), overrides, &error));
    return error;
}

/**
 * Every non-object node of a dump, as (dotted path, value). With
 * `intoArrays`, a non-empty array is walked too, its entries at
 * "path[i]", so number lists and per-replica engines yield one leaf per
 * number.
 */
void
collectLeaves(const sim::JsonValue &node, const std::string &path,
              core::SpecOverrides *out, bool intoArrays = false)
{
    if (intoArrays && node.isArray() && !node.items().empty()) {
        for (std::size_t i = 0; i < node.items().size(); ++i)
            collectLeaves(node.items()[i],
                          path + "[" + std::to_string(i) + "]", out, true);
        return;
    }
    if (!node.isObject()) {
        out->emplace_back(path, node);
        return;
    }
    for (const auto &[key, child] : node.members())
        collectLeaves(child, path.empty() ? key : path + "." + key, out,
                      intoArrays);
}

} // namespace

TEST(SpecOverride, ValueTextIsAJsonLiteralElseABareString)
{
    EXPECT_TRUE(core::overrideValue("true").isBool());
    EXPECT_EQ(core::overrideValue("8000").asInt(), 8000);
    EXPECT_TRUE(core::overrideValue("[1,2]").isArray());
    EXPECT_EQ(core::overrideValue("\"jsq\"").asString(), "jsq");
    EXPECT_EQ(core::overrideValue("jsq").asString(), "jsq");
    EXPECT_EQ(core::overrideValue("a100-48").asString(), "a100-48");
    EXPECT_EQ(core::overrideValue("").asString(), "");
    EXPECT_EQ(core::overrideValue("[1, 2]").items().size(), 2u);
    // Malformed JSON is a string too; the key's parser then rejects it.
    EXPECT_EQ(core::overrideValue("[1,").asString(), "[1,");
}

TEST(SpecOverride, AppliesLikeAConfigFile)
{
    std::string error;
    const auto spec = core::applySpecOverrides(
        testbedChameleon(),
        sets({"cluster.replicas=3", "cluster.router=p2c",
              "cluster.autoscale=true", "cluster.autoscaler.boot_ms=8000",
              "engine.gpu=a100-48", "tenancy.tenants=2",
              "tenancy.weights=[1,3]"}),
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->cluster.replicas, 3);
    EXPECT_EQ(spec->cluster.router, routing::RouterPolicy::PowerOfTwoChoices);
    EXPECT_TRUE(spec->cluster.autoscale);
    EXPECT_EQ(spec->cluster.autoscaler.bootMs, 8000.0);
    EXPECT_EQ(spec->engine.gpu, model::a100(48));
    EXPECT_EQ(spec->tenancy.weights, (std::vector<double>{1.0, 3.0}));
    // Untouched keys keep the base's values; no overrides = the base.
    EXPECT_EQ(spec->scheduler, testbedChameleon().scheduler);
    EXPECT_EQ(core::applySpecOverrides(testbedChameleon(), {}),
              testbedChameleon());
}

TEST(SpecOverride, UnknownPathListsItsSiblings)
{
    const auto error = overrideError({"cluster.routr=p2c"});
    EXPECT_NE(error.find("\"cluster.routr\""), std::string::npos) << error;
    EXPECT_NE(error.find("no key \"routr\" under \"cluster\""),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("replicas, router, router_config, autoscale, "
                         "autoscaler, fleet"),
              std::string::npos)
        << error;

    const auto top = overrideError({"clustr.router=p2c"});
    EXPECT_NE(top.find("at the top level"), std::string::npos) << top;
    EXPECT_NE(top.find("engine, scheduler"), std::string::npos) << top;

    // Descending through a leaf is an unknown path too.
    const auto leaf = overrideError({"cluster.router.seed=1"});
    EXPECT_NE(leaf.find("\"cluster.router\" is not an object"),
              std::string::npos)
        << leaf;

    // So is a key the schema no longer has (now a constant).
    for (const char *path :
         {"engine.kv_page_tokens=16", "engine.max_new_tokens=512",
          "engine.mem_sample_period_s=1", "tenancy.drr_quantum_tokens=512",
          "cluster.router_config.virtual_nodes=64",
          "cluster.router_config.spill_load_factor=1",
          "cluster.router_config.spill_margin=3",
          "cluster.autoscaler.eval_period_s=5",
          "cluster.autoscaler.high_watermark=24",
          "cluster.autoscaler.low_watermark=4",
          "cluster.autoscaler.forecast_horizon_s=15",
          "cluster.autoscaler.forecast_window_s=60",
          "cluster.autoscaler.up_cooldown_periods=1"}) {
        const std::string set = path;
        const std::string key = set.substr(0, set.find('='));
        const auto gone = overrideError({set});
        EXPECT_NE(gone.find("\"" + key + "\""), std::string::npos) << gone;
        EXPECT_NE(gone.find("no key \"" + key.substr(key.rfind('.') + 1)),
                  std::string::npos)
            << gone;
    }
}

TEST(SpecOverride, BadEnumValueListsTheKnownNames)
{
    const auto router = overrideError({"cluster.router=hash-ring"});
    EXPECT_NE(router.find("\"cluster.router\" unknown value \"hash-ring\""),
              std::string::npos)
        << router;
    EXPECT_NE(router.find(routing::routerPolicyNames()), std::string::npos)
        << router;

    const auto gpu = overrideError({"engine.gpu=h100"});
    EXPECT_NE(gpu.find("\"engine.gpu\" unknown gpu preset \"h100\""),
              std::string::npos)
        << gpu;

    const auto type = overrideError({"cluster.autoscale=yes"});
    EXPECT_NE(type.find("\"cluster.autoscale\" expects a bool"),
              std::string::npos)
        << type;
}

TEST(SpecOverride, ValidateFailureIsReported)
{
    const auto error = overrideError(
        {"cluster.autoscale=true", "cluster.autoscaler.min_replicas=4",
         "cluster.autoscaler.max_replicas=2"});
    EXPECT_NE(error.find("fails validation"), std::string::npos) << error;
    EXPECT_NE(error.find("cluster.autoscaler.max_replicas"),
              std::string::npos)
        << error;

    const auto peers = overrideError({"fabric.migration=all"});
    EXPECT_NE(peers.find("needs peers"), std::string::npos) << peers;
}

TEST(SpecOverride, FleetReplacesReplicasAndFollowsTheEngine)
{
    // The engine override lands on the fleet's replicas whether it
    // comes before or after the fleet: the tree parses "engine" first.
    for (const auto &order :
         {std::vector<std::string>{"engine.model=llama-13b",
                                   "cluster.fleet=a100x1+a40x2"},
          std::vector<std::string>{"cluster.fleet=a100x1+a40x2",
                                   "engine.model=llama-13b"}}) {
        std::string error;
        const auto spec =
            core::applySpecOverrides(testbedChameleon(), sets(order), &error);
        ASSERT_TRUE(spec.has_value()) << error;
        EXPECT_EQ(spec->cluster.replicas, 3);
        ASSERT_EQ(spec->cluster.replicaEngines.size(), 3u);
        for (const auto &engine : spec->cluster.replicaEngines)
            EXPECT_EQ(engine.model, model::llama13B());
        EXPECT_EQ(spec->cluster.replicaEngines[0].gpu, model::a100());
        EXPECT_EQ(spec->cluster.replicaEngines[2].gpu, model::a40());
    }

    // The two deployment forms replace each other; the last one wins.
    std::string error;
    const auto back = core::applySpecOverrides(
        testbedChameleon(),
        sets({"cluster.fleet=a40x2", "cluster.replicas=4"}), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->cluster.replicas, 4);
    EXPECT_TRUE(back->cluster.replicaEngines.empty());

    const auto unknown = overrideError({"cluster.fleet=h100x8"});
    EXPECT_NE(unknown.find("\"cluster.fleet\" unknown fleet preset"),
              std::string::npos)
        << unknown;
}

TEST(SpecOverride, RejectsRouterOverrideOnASingleFixedReplica)
{
    const auto error = guardError({"cluster.router=p2c"});
    EXPECT_NE(error.find("\"cluster.router\" has no effect"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("cluster.replicas > 1"), std::string::npos)
        << error;
    // router_config keys are guarded by the same row.
    EXPECT_NE(guardError({"cluster.router_config.slo_admission=true"})
                  .find("cluster.router_config.slo_admission"),
              std::string::npos);
}

TEST(SpecOverride, RejectsAutoscalerOverrideWithoutAutoscale)
{
    const auto error = guardError({"cluster.replicas=2",
                                   "cluster.autoscaler.max_replicas=6"});
    EXPECT_NE(error.find("\"cluster.autoscaler.max_replicas\" has no "
                         "effect"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("cluster.autoscale=true"), std::string::npos)
        << error;
}

TEST(SpecOverride, RejectsFabricLinkOverrideWithMigrationOff)
{
    for (const char *arg : {"fabric.topology=nvlink", "fabric.top_k=8"}) {
        const auto error = guardError({"cluster.replicas=2", arg});
        EXPECT_NE(error.find("has no effect"), std::string::npos) << error;
        EXPECT_NE(error.find("fabric.migration"), std::string::npos)
            << error;
        EXPECT_NE(error.find(fabric::migrationPolicyNames()),
                  std::string::npos)
            << error;
    }
}

TEST(SpecOverride, GuardsPassWhenTheOverrideTakesEffect)
{
    const auto overrides =
        sets({"cluster.replicas=2", "cluster.router=affinity-dir",
              "cluster.autoscale=true", "cluster.autoscaler.max_replicas=4",
              "fabric.migration=all", "fabric.topology=nvlink"});
    std::string error;
    const auto spec =
        core::applySpecOverrides(testbedChameleon(), overrides, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_TRUE(core::checkOverridesTakeEffect(*spec, overrides, &error))
        << error;
}

TEST(SpecOverride, SettingEveryDumpedLeafToItselfKeepsRandomSpecs)
{
    sim::Rng rng(0x5E7);
    for (int i = 0; i < 100; ++i) {
        const auto spec = randomSpec(rng);
        // Whole arrays as values, then each array entry by its index.
        for (const bool intoArrays : {false, true}) {
            core::SpecOverrides leaves;
            collectLeaves(core::specToJsonValue(spec), "", &leaves,
                          intoArrays);
            ASSERT_GT(leaves.size(), 60u);
            std::string error;
            const auto back = core::applySpecOverrides(spec, leaves, &error);
            ASSERT_TRUE(back.has_value())
                << "iteration " << i << ": " << error;
            EXPECT_EQ(*back, spec) << "iteration " << i;
        }
    }
}

// ---------------------------------------------------------------------
// operator== (the round-trip assertions depend on it being exact).
// ---------------------------------------------------------------------

namespace {

/**
 * Values that differ from a dumped leaf, in the order to try them:
 * numbers +1, then x2 and /2 unless 0; a bool flipped; an enum's other known names
 * (read off the parser's error for an unknown one); a free string
 * suffixed; an array grown by one number.
 */
std::vector<sim::JsonValue>
perturbations(const core::SystemSpec &base, const std::string &path,
              const sim::JsonValue &value)
{
    using sim::JsonValue;
    std::vector<JsonValue> out;
    if (value.isBool()) {
        out.push_back(JsonValue::makeBool(!value.asBool()));
    } else if (value.isUnsignedIntegral()) {
        out.push_back(JsonValue::makeUint64(value.asUint64() + 1));
    } else if (value.isIntegral()) {
        out.push_back(JsonValue::makeInt(value.asInt() + 1));
        if (value.asInt() != 0)
            out.push_back(JsonValue::makeInt(value.asInt() * 2));
    } else if (value.isNumber()) {
        const double v = value.asNumber();
        out.push_back(JsonValue::makeNumber(v + 1.0));
        if (v != 0.0) {
            out.push_back(JsonValue::makeNumber(v * 2.0));
            out.push_back(JsonValue::makeNumber(v / 2.0));
        }
    } else if (value.isArray()) {
        JsonValue grown = value;
        grown.push(JsonValue::makeNumber(1.0));
        out.push_back(std::move(grown));
    } else if (value.isString()) {
        std::string error;
        core::applySpecOverrides(base, {{path, JsonValue::makeString("?")}},
                                 &error);
        const auto known = error.find("known: ");
        if (known == std::string::npos) {
            out.push_back(JsonValue::makeString(value.asString() + "-x"));
        } else {
            std::string names = error.substr(known + 7);
            for (std::size_t start = 0; start < names.size();) {
                std::size_t end = names.find(", ", start);
                if (end == std::string::npos)
                    end = names.size();
                const std::string name = names.substr(start, end - start);
                if (name != value.asString())
                    out.push_back(JsonValue::makeString(name));
                start = end + 2;
            }
        }
    }
    return out;
}

} // namespace


TEST(SpecEquality, DistinguishesEveryAxis)
{
    const auto base = [] {
        auto spec = core::presets::chameleon();
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        return spec;
    };

    EXPECT_EQ(base(), base());

    auto named = base();
    named.name = "other";
    EXPECT_NE(named, base());

    auto scheduler = base();
    scheduler.scheduler.policy = core::SchedulerPolicy::Fifo;
    EXPECT_NE(scheduler, base());

    auto eviction = base();
    eviction.adapters.eviction = core::EvictionKind::Lru;
    EXPECT_NE(eviction, base());

    auto predictor = base();
    predictor.predictor.accuracy = 0.6;
    EXPECT_NE(predictor, base());

    auto engine = base();
    engine.engine.workspacePerGpu += 1;
    EXPECT_NE(engine, base());

    auto cluster = base();
    cluster.cluster.replicas = 2;
    EXPECT_NE(cluster, base());

    auto hetero = base();
    hetero.cluster.replicaEngines = {hetero.engine};
    EXPECT_NE(hetero, base());

    auto router = base();
    router.cluster.routerConfig.seed += 1;
    EXPECT_NE(router, base());

    auto autoscaler = base();
    autoscaler.cluster.autoscaler.downCooldownPeriods += 1;
    EXPECT_NE(autoscaler, base());

    auto reservation = base();
    reservation.reservation = core::ReservationPolicy::Predicted;
    EXPECT_NE(reservation, base());

    auto chunked = base();
    chunked.chunkTokens += 1;
    EXPECT_NE(chunked, base());

    // Fields the leaf walk below cannot reach: the keys whose every
    // perturbation validate() rejects on the base, and the two engine
    // fields the Runner derives (never printed, still compared).
    auto kind = base();
    kind.predictor.kind = "history";
    EXPECT_NE(kind, base());
    auto prefetch = base();
    prefetch.adapters.predictivePrefetch = true;
    EXPECT_NE(prefetch, base());
    auto topK = base();
    topK.adapters.prefetchTopK = 8;
    EXPECT_NE(topK, base());
    auto migration = base();
    migration.fabric.migration = fabric::MigrationPolicy::All;
    EXPECT_NE(migration, base());
    auto derivedReservation = base();
    derivedReservation.engine.predictedReservation =
        !derivedReservation.engine.predictedReservation;
    EXPECT_NE(derivedReservation, base());
    auto derivedChunk = base();
    derivedChunk.engine.prefillChunkTokens += 1;
    EXPECT_NE(derivedChunk, base());

    // Every dumped leaf: perturb it through the override path and
    // assert operator== sees the change.
    const std::vector<std::string> skipped = {
        "adapters.predictive_prefetch", // needs prefetch_top_k > 0
        "adapters.prefetch_top_k",      // needs predictive_prefetch
        "fabric.migration",             // needs peers
    };
    core::SpecOverrides leaves;
    collectLeaves(core::specToJsonValue(base()), "", &leaves);
    ASSERT_GT(leaves.size(), 60u);
    for (const auto &[path, value] : leaves) {
        const bool skip = std::find(skipped.begin(), skipped.end(),
                                    path) != skipped.end();
        std::optional<core::SystemSpec> perturbed;
        for (const auto &candidate : perturbations(base(), path, value)) {
            perturbed = core::applySpecOverrides(base(), {{path, candidate}});
            if (perturbed.has_value())
                break;
        }
        EXPECT_EQ(perturbed.has_value(), !skip) << path;
        if (perturbed.has_value()) {
            EXPECT_NE(*perturbed, base()) << path;
        }
    }
}

// ---------------------------------------------------------------------
// Leaf mutation: no numeric value aborts or hangs a run.
// ---------------------------------------------------------------------

namespace {

/** Does `error` name the leaf at exactly `path` (not a longer path)? */
bool
namesLeaf(const std::string &error, const std::string &path)
{
    for (std::size_t at = error.find(path); at != std::string::npos;
         at = error.find(path, at + 1)) {
        const std::size_t end = at + path.size();
        if (end == error.size() ||
            (!std::isalnum(static_cast<unsigned char>(error[end])) &&
             std::string("_.[").find(error[end]) == std::string::npos))
            return true;
    }
    return false;
}

} // namespace

TEST(SpecMutation, ZeroOrNegativeLeavesAreRejectedOrRunToCompletion)
{
    std::string error;
    // Per-replica engines and per-tenant lists, so the walk reaches
    // array entries ("cluster.replicas[1].max_running",
    // "tenancy.weights[0]") as well as object members.
    const auto base = core::applySpecOverrides(
        testbedChameleon(),
        sets({"cluster.fleet=a40x2", "cluster.router=affinity-dir",
              "fabric.migration=all", "cluster.autoscale=true",
              "cluster.autoscaler.max_replicas=4", "tenancy.tenants=2",
              "tenancy.weights=[1,2]", "tenancy.slo_multipliers=[1,2]"}),
        &error);
    ASSERT_TRUE(base.has_value()) << error;

    model::AdapterPool pool(model::llama7B(), 20);
    auto wl = workload::splitwiseLike();
    wl.seed = 9001;
    wl.rps = 4.0;
    wl.durationSeconds = 30.0;
    wl.numAdapters = 20;
    const auto generated = workload::TraceGenerator(wl, &pool).generate();
    ASSERT_GE(generated.size(), 20u);
    const workload::Trace trace(std::vector<workload::Request>(
        generated.requests().begin(), generated.requests().begin() + 20));

    // The replica count itself, which the array form replaces.
    core::SpecOverrides leaves = {
        {"cluster.replicas", sim::JsonValue::makeInt(2)}};
    collectLeaves(core::specToJsonValue(*base), "", &leaves, true);
    int rejected = 0;
    int ran = 0;
    for (const auto &[path, value] : leaves) {
        if (!value.isNumber())
            continue;
        for (const std::int64_t v : {0, -1}) {
            const auto spec = core::applySpecOverrides(
                *base, {{path, sim::JsonValue::makeInt(v)}}, &error);
            if (!spec.has_value()) {
                ++rejected;
                EXPECT_TRUE(namesLeaf(error, path))
                    << path << "=" << v << ": " << error;
                continue;
            }
            ++ran;
            const auto report = core::runSpec(*spec, &pool, trace);
            EXPECT_EQ(report.stats.finished, 20) << path << "=" << v;
        }
    }
    // Both outcomes occur: the walk reached the leaves (111 rejected
    // and 79 run at 63 keys).
    EXPECT_GT(rejected, 100);
    EXPECT_GT(ran, 75);
}
