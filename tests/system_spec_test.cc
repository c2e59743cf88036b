/**
 * @file
 * Tests for the SystemSpec / SystemRegistry / Runner redesign:
 *  - preset equivalence: every legacy SystemKind wiring, rebuilt by
 *    hand exactly as the old monolithic switch did, produces
 *    bit-identical seeded stats to the new SystemSpec path (a preset,
 *    or a preset plus one modifier: "chameleon-lru" is
 *    "chameleon+lru");
 *  - registry round-trip (name -> spec -> name) and the composition
 *    grammar;
 *  - SystemSpec::validate() rejections with actionable messages;
 *  - every enum's name table: names and aliases parse back to their
 *    values, and the names list holds no alias.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chameleon/cache_manager.h"
#include "chameleon/mlq_scheduler.h"
#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "predict/length_predictor.h"
#include "serving/fifo_scheduler.h"
#include "serving/sjf_scheduler.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/log.h"
#include "test_util.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

const std::vector<std::string> &
legacyKinds()
{
    static const std::vector<std::string> kinds{
        "slora",
        "slora-sjf",
        "slora-chunked",
        "chameleon-nocache",
        "chameleon-nosched",
        "chameleon",
        "chameleon-lru",
        "chameleon-fairshare",
        "chameleon-gdsf",
        "chameleon-prefetch",
        "chameleon-static",
        "chameleon-output-only",
        "chameleon-degree1",
    };
    return kinds;
}

bool
legacyUsesMlq(const std::string &kind)
{
    return kind != "slora" && kind != "slora-sjf" &&
           kind != "slora-chunked" && kind != "chameleon-nosched";
}

bool
legacyUsesCache(const std::string &kind)
{
    return kind != "slora" && kind != "slora-sjf" &&
           kind != "slora-chunked" && kind != "chameleon-nocache";
}

/**
 * The old System wiring, transliterated from the deleted SystemKind
 * switch in system.cc: FIFO/SJF vs MLQ, S-LoRA manager vs cache, the
 * per-kind eviction/WRS/static/prefetch tweaks, submitTrace directly
 * on the engine. This is the reference the new path must match bit
 * for bit.
 */
struct LegacySystem
{
    sim::Simulator sim;
    predict::LengthPredictor predictor{0.8, 0xC0FFEE};
    std::unique_ptr<serving::ServingEngine> engine;
    core::MlqScheduler *mlq = nullptr;

    LegacySystem(const std::string &kind, const model::AdapterPool &pool)
    {
        serving::EngineConfig ecfg;
        ecfg.model = model::llama7B();
        ecfg.gpu = model::a40();
        ecfg.predictedReservation = legacyUsesMlq(kind);
        if (kind == "slora-chunked")
            ecfg.prefillChunkTokens = 64;

        std::unique_ptr<serving::Scheduler> scheduler;
        if (!legacyUsesMlq(kind)) {
            if (kind == "slora-sjf")
                scheduler = std::make_unique<serving::SjfScheduler>();
            else
                scheduler = std::make_unique<serving::FifoScheduler>();
        } else {
            core::MlqConfig mcfg;
            mcfg.sloSeconds = 5.0;
            mcfg.refreshPeriod = 300 * sim::kSec;
            mcfg.kvBytesPerToken = ecfg.model.kvBytesPerToken();
            const std::int64_t pool_bytes =
                ecfg.gpu.memBytes - ecfg.model.weightsBytes() -
                ecfg.workspacePerGpu;
            mcfg.totalTokens = pool_bytes / mcfg.kvBytesPerToken;
            if (kind == "chameleon-static")
                mcfg.dynamic = false;
            if (kind == "chameleon-output-only")
                mcfg.wrsForm = core::WrsForm::OutputOnly;
            if (kind == "chameleon-degree1")
                mcfg.wrsForm = core::WrsForm::Degree1;
            auto owned =
                std::make_unique<core::MlqScheduler>(mcfg, &pool);
            mlq = owned.get();
            scheduler = std::move(owned);
        }

        engine = std::make_unique<serving::ServingEngine>(
            sim, ecfg, &pool, std::move(scheduler), &predictor);

        if (!legacyUsesCache(kind)) {
            engine->setAdapterManager(
                std::make_unique<serving::SLoraAdapterManager>(
                    pool, engine->memory(), engine->pcieLink(),
                    /*prefetchEnabled=*/true));
        } else {
            core::CacheConfig ccfg;
            if (kind == "chameleon-lru")
                ccfg.evictionPolicy = "lru";
            else if (kind == "chameleon-fairshare")
                ccfg.evictionPolicy = "fairshare";
            else if (kind == "chameleon-gdsf")
                ccfg.evictionPolicy = "gdsf";
            ccfg.predictivePrefetch = kind == "chameleon-prefetch";
            ccfg.predictiveTopK = 8;
            engine->setAdapterManager(std::make_unique<core::CacheManager>(
                pool, engine->memory(), engine->pcieLink(),
                engine->costModel(), ccfg));
        }
    }

    core::RunReport run(const workload::Trace &trace)
    {
        engine->submitTrace(trace);
        sim.run();
        engine->finalize();
        core::RunReport report;
        report.stats = engine->stats();
        report.pcieBytes = engine->pcieLink().totalBytes();
        report.pcieTransfers = engine->pcieLink().totalTransfers();
        report.cacheHitRate = report.stats.cacheHitRate();
        if (auto *cache = dynamic_cast<core::CacheManager *>(
                &engine->adapterManager()))
            report.cacheEvictions = cache->evictions();
        if (mlq != nullptr)
            report.mlqQueues = mlq->queueCount();
        return report;
    }
};

workload::Trace
seededTrace(const model::AdapterPool &pool, std::uint64_t seed)
{
    auto wl = workload::splitwiseLike();
    wl.rps = 8.0;
    wl.durationSeconds = 45.0;
    wl.numAdapters = 50;
    wl.seed = seed;
    workload::TraceGenerator gen(wl, &pool);
    return gen.generate();
}

model::AdapterPool &
testPool()
{
    static model::AdapterPool pool(model::llama7B(), 50);
    return pool;
}

core::SystemSpec
testbedSpec(const std::string &system)
{
    auto spec = core::SystemRegistry::global().lookup(system);
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Preset equivalence: legacy wiring vs the SystemSpec path.
// ---------------------------------------------------------------------

class PresetEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetEquivalence, LegacyWiringBitIdentical)
{
    const auto &kind = GetParam();
    const auto trace = seededTrace(testPool(), 42);

    LegacySystem legacy(kind, testPool());
    const auto expect = legacy.run(trace);
    const auto got = core::runSpec(testbedSpec(testutil::systemOf(kind)),
                                   &testPool(), trace);

    EXPECT_EQ(got.stats.finished, expect.stats.finished);
    EXPECT_EQ(got.stats.ttft.sorted(), expect.stats.ttft.sorted());
    EXPECT_EQ(got.stats.tbt.sorted(), expect.stats.tbt.sorted());
    EXPECT_EQ(got.stats.e2e.sorted(), expect.stats.e2e.sorted());
    EXPECT_EQ(got.stats.iterations, expect.stats.iterations);
    EXPECT_EQ(got.stats.preemptions, expect.stats.preemptions);
    EXPECT_EQ(got.stats.squashes, expect.stats.squashes);
    EXPECT_EQ(got.stats.bypasses, expect.stats.bypasses);
    EXPECT_EQ(got.stats.prefillTokens, expect.stats.prefillTokens);
    EXPECT_EQ(got.stats.decodeTokens, expect.stats.decodeTokens);
    EXPECT_EQ(got.pcieBytes, expect.pcieBytes);
    EXPECT_EQ(got.pcieTransfers, expect.pcieTransfers);
    EXPECT_EQ(got.cacheEvictions, expect.cacheEvictions);
    EXPECT_EQ(got.mlqQueues, expect.mlqQueues);
}

INSTANTIATE_TEST_SUITE_P(AllLegacyKinds, PresetEquivalence,
                         ::testing::ValuesIn(legacyKinds()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return name;
                         });

// ---------------------------------------------------------------------
// Registry: round-trip, presets, grammar, custom registration.
// ---------------------------------------------------------------------

TEST(SystemRegistry, AllLegacyKindsAreRegistered)
{
    // Seven legacy kinds are registered presets; the other six are a
    // preset plus one modifier, and their old names are unknown.
    const auto &registry = core::SystemRegistry::global();
    for (const auto &kind : legacyKinds()) {
        const std::string system = testutil::systemOf(kind);
        EXPECT_TRUE(registry.find(system).has_value()) << kind;
        if (system == kind)
            EXPECT_FALSE(registry.description(kind).empty()) << kind;
        else
            EXPECT_FALSE(registry.find(kind).has_value()) << kind;
    }
    EXPECT_EQ(registry.names().size(), 7u);
}

TEST(SystemRegistry, NameSpecNameRoundTrip)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names()) {
        const auto spec = registry.lookup(name);
        EXPECT_EQ(spec.name, name);
    }
    // Composed lookups carry their full grammar as the name.
    EXPECT_EQ(registry.lookup("chameleon+gdsf+prefetch").name,
              "chameleon+gdsf+prefetch");
}

TEST(SystemRegistry, PresetFunctionsMatchRegistryEntries)
{
    const auto &registry = core::SystemRegistry::global();
    const std::vector<std::pair<std::string, core::SystemSpec>> presets{
        {"slora", core::presets::slora()},
        {"slora-sjf", core::presets::sloraSjf()},
        {"chameleon-nocache", core::presets::chameleonNoCache()},
        {"chameleon-nosched", core::presets::chameleonNoSched()},
        {"chameleon", core::presets::chameleon()},
        {"chameleon-output-only", core::presets::chameleonOutputOnly()},
        {"chameleon-degree1", core::presets::chameleonDegree1()},
    };
    for (const auto &[name, preset] : presets) {
        const auto spec = registry.lookup(name);
        EXPECT_EQ(spec.name, preset.name) << name;
        EXPECT_EQ(spec.scheduler.policy, preset.scheduler.policy) << name;
        EXPECT_EQ(spec.scheduler.wrsForm, preset.scheduler.wrsForm)
            << name;
        EXPECT_EQ(spec.scheduler.dynamicQueues,
                  preset.scheduler.dynamicQueues)
            << name;
        EXPECT_EQ(spec.adapters.policy, preset.adapters.policy) << name;
        EXPECT_EQ(spec.adapters.eviction, preset.adapters.eviction)
            << name;
        EXPECT_EQ(spec.adapters.predictivePrefetch,
                  preset.adapters.predictivePrefetch)
            << name;
        EXPECT_EQ(spec.chunkedPrefill, preset.chunkedPrefill) << name;
    }
}

TEST(SystemRegistry, GrammarComposesAxes)
{
    const auto &registry = core::SystemRegistry::global();

    const auto composed = registry.lookup("chameleon+gdsf+prefetch");
    EXPECT_EQ(composed.adapters.eviction, core::EvictionKind::Gdsf);
    EXPECT_TRUE(composed.adapters.predictivePrefetch);
    EXPECT_EQ(composed.adapters.prefetchTopK, 8u);

    const auto wide = registry.lookup("chameleon+prefetch16");
    EXPECT_EQ(wide.adapters.prefetchTopK, 16u);

    const auto sjf = registry.lookup("slora+sjf+cache");
    EXPECT_EQ(sjf.scheduler.policy, core::SchedulerPolicy::Sjf);
    EXPECT_EQ(sjf.adapters.policy, core::AdapterPolicy::ChameleonCache);

    const auto chunked = registry.lookup("slora+chunked128");
    EXPECT_TRUE(chunked.chunkedPrefill);
    EXPECT_EQ(chunked.chunkTokens, 128);

    const auto history = registry.lookup("chameleon+history");
    EXPECT_EQ(history.predictor.kind, "history");
}

namespace {

/** Every name of `table` is a modifier that sets the axis `get` reads
 * to its value, and modifierHelp() lists it. */
template <class E, class Get>
void
expectTableNamesAreModifiers(const sim::NameTable<E> &table, Get get)
{
    const auto &registry = core::SystemRegistry::global();
    const auto help = core::SystemRegistry::modifierHelp();
    for (const auto &entry : table.entries()) {
        const std::string name = std::string("slora+") + entry.name;
        std::string error;
        const auto spec = registry.find(name, &error);
        ASSERT_TRUE(spec.has_value()) << name << ": " << error;
        EXPECT_EQ(get(*spec), entry.value) << name;
        EXPECT_NE(std::find(help.begin(), help.end(), entry.name),
                  help.end())
            << entry.name;
    }
}

} // namespace

TEST(SystemRegistry, EveryPolicyNameIsAModifier)
{
    expectTableNamesAreModifiers(
        core::evictionPolicyTable(),
        [](const core::SystemSpec &s) { return s.adapters.eviction; });
    expectTableNamesAreModifiers(
        core::schedulerPolicyTable(),
        [](const core::SystemSpec &s) { return s.scheduler.policy; });
    expectTableNamesAreModifiers(
        core::adapterPolicyTable(),
        [](const core::SystemSpec &s) { return s.adapters.policy; });
}

TEST(SystemRegistry, ModifierSpellingsOfPolicyNamesStayAccepted)
{
    const auto &registry = core::SystemRegistry::global();
    EXPECT_EQ(registry.lookup("chameleon+lru+paper").adapters.eviction,
              core::EvictionKind::Paper);
    EXPECT_EQ(registry.lookup("chameleon+fair-share").adapters.eviction,
              core::EvictionKind::FairShare);
    EXPECT_EQ(registry.lookup("slora+cache").adapters.policy,
              core::AdapterPolicy::ChameleonCache);
    EXPECT_EQ(registry.lookup("chameleon+ondemand").adapters.policy,
              core::AdapterPolicy::OnDemand);
}


TEST(SystemRegistry, UnknownNamesFailWithActionableErrors)
{
    const auto &registry = core::SystemRegistry::global();

    std::string error;
    EXPECT_FALSE(registry.find("no-such-system", &error).has_value());
    EXPECT_NE(error.find("unknown system"), std::string::npos);
    EXPECT_NE(error.find("--list-systems"), std::string::npos);

    error.clear();
    EXPECT_FALSE(registry.find("chameleon+frobnicate", &error).has_value());
    EXPECT_NE(error.find("unknown system modifier"), std::string::npos);
    EXPECT_NE(error.find("gdsf"), std::string::npos); // lists known mods

    // The preset names that a base plus one modifier replaced are
    // unknown, and the error names them.
    for (const char *retired :
         {"slora-chunked", "chameleon-lru", "chameleon-fairshare",
          "chameleon-gdsf", "chameleon-prefetch", "chameleon-static"}) {
        error.clear();
        EXPECT_FALSE(registry.find(retired, &error).has_value()) << retired;
        EXPECT_NE(error.find(std::string("unknown system '") + retired +
                             "'"),
                  std::string::npos)
            << error;
    }

    // Stray '+' (trailing or doubled) is a malformed name, not a
    // silent run of the base system.
    for (const char *malformed :
         {"chameleon+", "chameleon++gdsf", "chameleon+gdsf+"}) {
        error.clear();
        EXPECT_FALSE(registry.find(malformed, &error).has_value())
            << malformed;
        EXPECT_NE(error.find("empty modifier"), std::string::npos)
            << malformed;
    }
}

TEST(SystemRegistry, CustomRegistrationIsLookedUpAndListed)
{
    core::SystemRegistry registry; // fresh instance, presets included
    auto spec = registry.lookup("chameleon")
                    .withEviction(core::EvictionKind::Lru)
                    .withPrefetch(4);
    registry.add("my-system", spec, "custom test system");
    EXPECT_TRUE(registry.has("my-system"));
    const auto found = registry.lookup("my-system");
    EXPECT_EQ(found.name, "my-system"); // add() stamps the key
    EXPECT_EQ(found.adapters.eviction, core::EvictionKind::Lru);
    EXPECT_EQ(found.adapters.prefetchTopK, 4u);
    const auto names = registry.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "my-system"),
              names.end());
    // Custom names compose like built-ins.
    EXPECT_EQ(registry.lookup("my-system+gdsf").adapters.eviction,
              core::EvictionKind::Gdsf);
}

// ---------------------------------------------------------------------
// SystemSpec::validate() rejections.
// ---------------------------------------------------------------------

namespace {

bool
hasErrorContaining(const core::SystemSpec &spec, const std::string &text)
{
    for (const auto &error : spec.validate()) {
        if (error.find(text) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(SpecValidation, PresetsAndGrammarSpecsAreValid)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names())
        EXPECT_TRUE(registry.lookup(name).validate().empty()) << name;
    EXPECT_TRUE(registry.lookup("chameleon+gdsf+prefetch")
                    .validate()
                    .empty());
}

TEST(SpecValidation, RejectsNonPositiveReplicas)
{
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 0;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.replicas"));
    spec.cluster.replicas = -3;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.replicas"));
}

TEST(SpecValidation, RejectsNonPositiveChunkSize)
{
    auto spec = core::SystemRegistry::global().lookup("slora+chunked");
    spec.chunkTokens = 0;
    EXPECT_TRUE(hasErrorContaining(spec, "non-positive chunk size"));
    EXPECT_TRUE(hasErrorContaining(spec, "chunk_tokens must be > 0"));
    spec.chunkTokens = -64;
    EXPECT_TRUE(hasErrorContaining(spec, "chunk_tokens must be > 0"));
}

TEST(SpecValidation, RejectsPrefetchTopKWithoutPrefetch)
{
    auto spec = core::presets::chameleon();
    spec.adapters.prefetchTopK = 8; // but predictivePrefetch is false
    EXPECT_TRUE(hasErrorContaining(spec, "without prefetch enabled"));
    EXPECT_TRUE(hasErrorContaining(spec, "adapters.prefetch_top_k=8"));

    auto zero = core::presets::chameleon().withPrefetch();
    zero.adapters.prefetchTopK = 0;
    EXPECT_TRUE(hasErrorContaining(zero, "adapters.prefetch_top_k=0"));
}

TEST(SpecValidation, RejectsEvictionWithoutCache)
{
    auto spec = core::presets::slora();
    spec.adapters.eviction = core::EvictionKind::Gdsf;
    EXPECT_TRUE(hasErrorContaining(spec, "requires the chameleon cache"));
    EXPECT_TRUE(hasErrorContaining(spec, "adapters.eviction=gdsf"));
    EXPECT_TRUE(
        hasErrorContaining(spec, "set adapters.policy=chameleon-cache"));
    // The same spec with the cache enabled is fine.
    spec.adapters.policy = core::AdapterPolicy::ChameleonCache;
    EXPECT_TRUE(spec.validate().empty());
}

TEST(SpecValidation, RejectsBadPredictor)
{
    auto spec = core::presets::chameleon();
    spec.predictor.kind = "crystal-ball";
    EXPECT_TRUE(hasErrorContaining(
        spec, "predictor.kind: unknown value \"crystal-ball\""));
    spec.predictor.kind = "bert";
    spec.predictor.accuracy = 1.5;
    EXPECT_TRUE(hasErrorContaining(
        spec, "predictor.accuracy must be within [0, 1] (got 1.5)"));
}

TEST(SpecValidation, RejectsBadAutoscalerBounds)
{
    auto spec = core::presets::chameleon();
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 4;
    spec.cluster.autoscaler.maxReplicas = 2;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.autoscaler.max_replicas"));
}

TEST(SpecValidation, RejectsWorkspaceThatLeavesNoMemoryForRequests)
{
    // Llama-7B (13.48 GB of weights) on one 48 GiB A40: a 36 GiB
    // workspace leaves nothing for KV pages. The error names the --set
    // path and the bytes.
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    EXPECT_TRUE(spec.validate().empty());
    spec.engine.workspacePerGpu = 36ll << 30;
    EXPECT_TRUE(hasErrorContaining(
        spec, "engine.workspace_per_gpu must be at most 38059083264"));
    EXPECT_TRUE(hasErrorContaining(spec, "(got 38654705664)"));
    // The largest accepted workspace leaves exactly one token's KV.
    spec.engine.workspacePerGpu = 38059083264;
    EXPECT_TRUE(spec.validate().empty());
    spec.engine.workspacePerGpu += 1;
    EXPECT_FALSE(spec.validate().empty());
    // Two GPUs hold it.
    spec.engine.tpDegree = 2;
    EXPECT_TRUE(spec.validate().empty());

    // A per-replica override is checked under its own path.
    spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.withFleet({model::a40(), model::a40()});
    ASSERT_EQ(spec.cluster.replicaEngines.size(), 2u);
    EXPECT_TRUE(spec.validate().empty());
    spec.cluster.replicaEngines[1].workspacePerGpu = 36ll << 30;
    EXPECT_TRUE(hasErrorContaining(
        spec, "cluster.replicas[1].workspace_per_gpu must be at most"));
    EXPECT_FALSE(hasErrorContaining(spec, "cluster.replicas[0]"));

    // A model the GPUs cannot hold at all names the GPU memory.
    spec = core::presets::chameleon();
    spec.engine.model = model::llama70B();
    spec.engine.gpu = model::a40();
    EXPECT_TRUE(hasErrorContaining(spec, "engine.gpu.mem_bytes must be"));
}

TEST(SpecValidation, CollectsEveryProblemAtOnce)
{
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 0;
    spec.predictor.kind = "nope";
    spec.adapters.prefetchTopK = 4;
    EXPECT_GE(spec.validate().size(), 3u);
}

// ---------------------------------------------------------------------
// Enum name tables.
// ---------------------------------------------------------------------

namespace {

/** `table`'s names print, parse and list consistently. */
template <class E>
void
expectConsistentNames(const sim::NameTable<E> &table,
                      const std::string &names)
{
    std::string listed;
    for (const auto &entry : table.entries()) {
        EXPECT_STREQ(table.name(entry.value), entry.name);
        E parsed = table.entries().back().value;
        EXPECT_TRUE(table.byName(table.name(entry.value), &parsed))
            << entry.name;
        EXPECT_EQ(parsed, entry.value) << entry.name;
        listed += (listed.empty() ? "" : ", ") + std::string(entry.name);
    }
    EXPECT_EQ(listed, table.names());
    EXPECT_EQ(names, table.names());
    for (const auto &alias : table.aliases()) {
        E parsed = table.entries().front().value;
        EXPECT_TRUE(table.byName(alias.name, &parsed)) << alias.name;
        EXPECT_EQ(parsed, alias.value) << alias.name;
        EXPECT_STRNE(table.name(alias.value), alias.name);
        EXPECT_EQ((", " + listed + ", ").find(", " + std::string(alias.name) +
                                              ", "),
                  std::string::npos)
            << alias.name;
    }
    E untouched = table.entries().front().value;
    EXPECT_FALSE(table.byName("bogus", &untouched));
    EXPECT_EQ(untouched, table.entries().front().value);
}

} // namespace

TEST(EnumNames, EveryTableRoundTripsAndListsNoAlias)
{
    expectConsistentNames(core::schedulerPolicyTable(),
                          "fifo, sjf, mlq, wfq, drr");
    expectConsistentNames(core::adapterPolicyTable(),
                          "on-demand, slora, chameleon-cache");
    expectConsistentNames(core::evictionPolicyTable(),
                          "chameleon, lru, fairshare, gdsf");
    expectConsistentNames(core::reservationPolicyTable(),
                          "auto, max-tokens, predicted");
    expectConsistentNames(core::wrsFormTable(),
                          "degree2, degree1, output-only");
    expectConsistentNames(routing::routerPolicyTable(),
                          routing::routerPolicyNames());
    expectConsistentNames(routing::scaleUpPolicyTable(),
                          routing::scaleUpPolicyNames());
    expectConsistentNames(fabric::migrationPolicyTable(),
                          fabric::migrationPolicyNames());
    expectConsistentNames(fabric::topologyTable(), fabric::topologyNames());
    expectConsistentNames(sim::logLevelTable(), sim::logLevelNames());

    // The parse-only aliases and the wrappers over the tables.
    routing::RouterPolicy router{};
    EXPECT_TRUE(routing::routerPolicyByName("round-robin", &router));
    EXPECT_EQ(router, routing::RouterPolicy::RoundRobin);
    EXPECT_TRUE(routing::routerPolicyByName("affinity-cache", &router));
    EXPECT_EQ(router, routing::RouterPolicy::AdapterAffinityDirectory);
    fabric::TopologyKind topology = fabric::TopologyKind::NvLink;
    EXPECT_TRUE(fabric::topologyByName("pcie-peer", &topology));
    EXPECT_EQ(topology, fabric::TopologyKind::PciePeer);
    EXPECT_STREQ(core::evictionPolicyName(core::EvictionKind::Paper),
                 "chameleon");
    core::WrsForm form{};
    EXPECT_TRUE(core::wrsFormByName("output-only", &form));
    EXPECT_EQ(form, core::WrsForm::OutputOnly);
}
