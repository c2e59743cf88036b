/**
 * @file
 * Tests for the sweep subsystem (sweep_spec.h / sweep_runner.h):
 *  - JSON loading: defaults, strict unknown-key rejection (the
 *    retired bespoke axis keys, templates and grid included), the
 *    workload block's bounds, "axes" grammar;
 *  - expansion: composed system names keep their modifiers, axis
 *    order and single-value axes, the axis rules (one deployment, one
 *    adapter pool, no preset axis), one model per sweep, trace sharing
 *    across systems at a load, seeds over the workload axes,
 *    rps_per_replica, the trace's tenants from tenancy.tenants;
 *  - the example sweeps' expansions, pinned;
 *  - rows: one column per path axis, and baseline_diff treating those
 *    columns as cell identity;
 *  - determinism: the same sweep JSON + seed produces a byte-identical
 *    BenchJson document on repeated runs and at any thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chameleon/spec_json.h"
#include "model/adapter.h"
#include "model/llm.h"
#include "simkit/json.h"
#include "sweep/baseline_diff.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"

using namespace chameleon;

namespace {

const char *kSmallSweep = R"({
  "name": "small",
  "systems": ["slora", "chameleon"],
  "axes": {"workload.rps": [4.0, 5.0]},
  "workload": {"preset": "splitwise", "duration_s": 20, "adapters": 16},
  "seed": 7
})";

sweep::SweepSpec
parseSweep(const std::string &text)
{
    std::string error;
    const auto spec = sweep::sweepFromJson(text, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    return spec.value_or(sweep::SweepSpec{});
}

std::string
sweepError(const std::string &text)
{
    std::string error;
    const auto spec = sweep::sweepFromJson(text, &error);
    EXPECT_FALSE(spec.has_value());
    return error;
}

/** The expansion error of a sweep that parses. */
std::string
expandError(const std::string &text)
{
    std::string error;
    EXPECT_FALSE(sweep::expandSweep(parseSweep(text), &error).has_value())
        << text;
    return error;
}

} // namespace

// ---------------------------------------------------------------------
// JSON loading.
// ---------------------------------------------------------------------

TEST(SweepJson, LoadsWithDefaults)
{
    const auto spec = parseSweep(kSmallSweep);
    EXPECT_EQ(spec.name, "small");
    EXPECT_EQ(spec.systems.size(), 2u);
    EXPECT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.threads, 1);
    EXPECT_EQ(spec.workload.numAdapters, 16);
    EXPECT_EQ(spec.workload.durationSeconds, 20.0);
    EXPECT_EQ(spec.outputPath(), "BENCH_small.json");
    // Every cell starts on the paper testbed.
    const auto cells = sweep::expandSweep(spec);
    ASSERT_TRUE(cells.has_value());
    for (const auto &cell : *cells) {
        EXPECT_EQ(cell.spec.engine.model.name, "llama-7b");
        EXPECT_EQ(cell.spec.engine.gpu.name, "a40-48g");
    }
}

TEST(SweepJson, RejectsUnknownKeysNamingThem)
{
    const auto error =
        sweepError(R"({"systems": ["slora"], "workloadz": {}})");
    EXPECT_NE(error.find("workloadz"), std::string::npos) << error;

    const auto nested = sweepError(
        R"({"systems": ["slora"], "workload": {"durations": 5}})");
    EXPECT_NE(nested.find("workload.durations"), std::string::npos)
        << nested;
}

TEST(SweepJson, RejectsEmptySweeps)
{
    const auto error = sweepError(R"({"name": "empty"})");
    EXPECT_NE(error.find("nothing to run"), std::string::npos) << error;
}

TEST(SweepJson, RejectsExplicitlyEmptyAxisArrays)
{
    // An empty axis silently replaced by a default would run a grid
    // the author never wrote.
    for (const char *path : {"workload.rps", "cluster.replicas",
                             "cluster.fleet", "cluster.router",
                             "cluster.autoscale"}) {
        const auto error = expandError(
            std::string(R"({"systems": ["slora"], "axes": {")") + path +
            R"(": []}})");
        EXPECT_NE(error.find(path), std::string::npos) << error;
        EXPECT_NE(error.find("empty array"), std::string::npos) << error;
    }
    // "systems" has no default: empty is nothing to run.
    const auto error = sweepError(R"({"systems": []})");
    EXPECT_NE(error.find("nothing to run"), std::string::npos) << error;
}

TEST(SweepJson, RejectsBadWorkloadPreset)
{
    const auto error = sweepError(
        R"({"systems": ["slora"], "workload": {"preset": "azure"}})");
    EXPECT_NE(error.find("workload.preset"), std::string::npos) << error;
    EXPECT_NE(error.find("splitwise"), std::string::npos) << error;
}

TEST(SweepJson, BurstBoundsRejectAGeneratorThatCannotRun)
{
    // Parse only: a negative burst length makes the generator's base
    // rate infinite (-30 s: it never finishes) or negative (-40 s: it
    // aborts), so neither may reach it.
    for (const char *duration : {"-30", "-40"}) {
        const auto error = sweepError(
            std::string(R"({"systems": ["slora"], "workload": {
              "burst_multiplier": 3, "burst_period_s": 60,
              "burst_duration_s": )") +
            duration + "}}");
        EXPECT_NE(error.find("workload.burst_duration_s must be >= 0"),
                  std::string::npos)
            << error;
    }
    for (const char *bad :
         {R"("burst_multiplier": 0.5)", R"("burst_period_s": 0)",
          R"("tenant_storm": 0.5)", R"("rps": 0)", R"("duration_s": -1)",
          R"("adapters": -3)"}) {
        const auto error = sweepError(
            std::string(R"({"systems": ["slora"], "workload": {)") + bad +
            "}}");
        const std::string key = std::string(bad).substr(
            1, std::string(bad).find('"', 1) - 1);
        EXPECT_NE(error.find("workload." + key + " must be"),
                  std::string::npos)
            << error;
    }
}

TEST(SweepJson, RemovedKeysFailNamingThem)
{
    // loads, replicas and fleets are the workload.rps, cluster.replicas
    // and cluster.fleet axes; the trace's tenants are tenancy.tenants.
    for (const char *key :
         {R"("loads": [4.0])", R"("replicas": [2])",
          R"("fleets": ["a40x2"])"}) {
        const auto error = sweepError(
            std::string(R"({"systems": ["chameleon"], )") + key + "}");
        const std::string name = std::string(key).substr(
            1, std::string(key).find('"', 1) - 1);
        EXPECT_NE(error.find("\"" + name + "\" is not a recognised key"),
                  std::string::npos)
            << error;
    }
    const auto error = sweepError(
        R"({"systems": ["chameleon"], "workload": {"tenants": 4}})");
    EXPECT_NE(error.find("\"workload.tenants\" is not a recognised key"),
              std::string::npos)
        << error;
}

TEST(SweepJson, AutoscaleAxisAndTemplateLoadAndExpand)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "workload": {"rps": 6.0},
      "axes": {
        "cluster.autoscale": [false, true],
        "cluster.autoscaler.min_replicas": [2],
        "cluster.autoscaler.max_replicas": [6],
        "cluster.autoscaler.replica_service_rps": [8.5],
        "cluster.autoscaler.boot_ms": [4000],
        "cluster.autoscaler.scale_up_policy": ["fastest"],
        "cluster.autoscaler.measured_rate_alpha": [0.3],
        "cluster.replicas": [2]
      }
    })");
    ASSERT_EQ(spec.axes.size(), 8u);
    EXPECT_EQ(spec.axes[0].path, "cluster.autoscale");
    EXPECT_EQ(spec.axes[0].values.size(), 2u);

    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 2u);
    EXPECT_EQ((*cells)[0].axisValue("cluster.autoscale"), "false");
    EXPECT_FALSE((*cells)[0].spec.cluster.autoscale);
    // On-cell: autoscaling with the single-valued template stamped in.
    EXPECT_EQ((*cells)[1].axisValue("cluster.autoscale"), "true");
    const auto &as = (*cells)[1].spec.cluster.autoscaler;
    EXPECT_TRUE((*cells)[1].spec.cluster.autoscale);
    EXPECT_EQ(as.minReplicas, 2u);
    EXPECT_EQ(as.maxReplicas, 6u);
    EXPECT_EQ(as.replicaServiceRps, 8.5);
    EXPECT_EQ(as.bootMs, 4000.0);
    EXPECT_EQ(as.scaleUpPolicy, routing::ScaleUpPolicy::Fastest);
    EXPECT_EQ(as.measuredRateAlpha, 0.3);
    // The template reaches the off-cell too, where it is inert.
    EXPECT_EQ((*cells)[0].spec.cluster.autoscaler, as);
    // Both cells share the trace: identical arrivals, on/off compared.
    EXPECT_EQ((*cells)[0].traceIndex, (*cells)[1].traceIndex);
}

TEST(SweepJson, AutoscaleAxisRejectsNonBooleans)
{
    const auto error = expandError(
        R"({"systems": ["slora"], "axes": {"cluster.autoscale": [1, 0]}})");
    EXPECT_NE(error.find("cluster.autoscale"), std::string::npos) << error;
    EXPECT_NE(error.find("bool"), std::string::npos) << error;
}

TEST(SweepJson, RetiredAxisKeysFailAsUnknownKeys)
{
    // The bespoke axes and templates are spec paths now, and composed
    // names replace the modifier grid; the old keys must fail loudly
    // rather than be silently ignored or stamp over the cells.
    for (const char *key :
         {R"("routers": ["jsq"])", R"("autoscale": [true])",
          R"("autoscaler": {"max_replicas": 4})",
          R"("slo_admission": [true])", R"("migrations": ["all"])",
          R"("topologies": ["nvlink"])", R"("fabric": {"top_k": 2})",
          R"("engine": {"workspace_per_gpu": 25769803776})",
          R"("predictor": {"kind": "history"})",
          R"("grid": {"base": "chameleon", "axes": [["lru"]]})"}) {
        const std::string text =
            std::string(R"({"systems": ["chameleon"], )") + key + "}";
        const auto error = sweepError(text);
        const std::string name = std::string(key).substr(
            1, std::string(key).find('"', 1) - 1);
        EXPECT_NE(error.find("\"" + name + "\" is not a recognised key"),
                  std::string::npos)
            << error;
    }
}

TEST(SweepExpand, InvalidAutoscalerTemplateNamesTheCell)
{
    const auto error = expandError(R"({
      "systems": ["chameleon"],
      "axes": {"cluster.autoscale": [true],
               "cluster.autoscaler.min_replicas": [4],
               "cluster.autoscaler.max_replicas": [2]}
    })");
    EXPECT_NE(error.find("sweep cell \"chameleon\""), std::string::npos)
        << error;
    EXPECT_NE(error.find("cluster.autoscale=true"), std::string::npos)
        << error;
    EXPECT_NE(error.find("cluster.autoscaler.max_replicas"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Expansion.
// ---------------------------------------------------------------------

TEST(SweepExpand, ComposedNamesKeepTheirModifiers)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon", "chameleon+history",
                  "chameleon+lru+nobypass"],
      "workload": {"rps": 4.0}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 3u);
    // Nothing stamps over the registry: the predictor modifier holds.
    EXPECT_EQ((*cells)[0].spec.predictor.kind, "bert");
    EXPECT_EQ((*cells)[1].spec.predictor.kind, "history");
    EXPECT_FALSE((*cells)[2].spec.scheduler.bypass);
    EXPECT_EQ((*cells)[2].spec.adapters.eviction,
              core::EvictionKind::Lru);
}

TEST(SweepExpand, HistoryPredictorCellRunsItsOwnPredictor)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon", "chameleon+history"],
      "workload": {"preset": "splitwise", "rps": 12.0, "duration_s": 60,
                   "adapters": 20},
      "seed": 7
    })");
    const auto results = sweep::SweepRunner(spec).run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[1].cell.spec.predictor.kind, "history");
    // Same trace, different predictor: the event streams must differ.
    EXPECT_NE(results[0].report.eventHash, results[1].report.eventHash);
}

TEST(SweepExpand, RejectsCellsOnDifferentModelsNamingTheKey)
{
    // The cells share one adapter pool, so one sweep runs one model.
    const auto error = expandError(R"({
      "systems": ["chameleon"],
      "axes": {"engine.model": ["llama-7b", "llama-13b"]}
    })");
    EXPECT_NE(error.find("engine.model"), std::string::npos) << error;
    EXPECT_NE(error.find("llama-13b"), std::string::npos) << error;
}

TEST(SweepExpand, SharesTracesAcrossSystemsAtALoad)
{
    const auto spec = parseSweep(kSmallSweep);
    const auto cells = sweep::expandSweep(spec);
    ASSERT_TRUE(cells.has_value());
    ASSERT_EQ(cells->size(), 4u);
    // slora@4 and chameleon@4 share trace 0; @5 share trace 1.
    EXPECT_EQ((*cells)[0].traceIndex, (*cells)[2].traceIndex);
    EXPECT_EQ((*cells)[1].traceIndex, (*cells)[3].traceIndex);
    EXPECT_NE((*cells)[0].traceIndex, (*cells)[1].traceIndex);
    // Every trace is drawn with the sweep's seed.
    EXPECT_EQ((*cells)[0].trace.seed, 7u);
    EXPECT_EQ((*cells)[1].trace.seed, 7u);
}

TEST(SweepExpand, EveryTraceUsesTheSweepSeed)
{
    // Any workload key but the preset is an axis. Every cell's trace
    // is drawn with the sweep's seed, as a single run of its
    // configuration would draw it; cells that differ in a workload key
    // run distinct traces, and a spec-path axis between them shares
    // traces instead of reseeding.
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "axes": {"workload.rps": [4.0, 5.0],
               "cluster.router": ["jsq", "p2c"],
               "workload.burst_multiplier": [1.0, 3.0],
               "cluster.replicas": [2]},
      "seed": 100
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 8u);
    for (std::size_t i = 0; i < cells->size(); ++i) {
        const auto &cell = (*cells)[i];
        const std::size_t rpsIndex = i / 4;
        const std::size_t burstIndex = i % 2;
        EXPECT_EQ(cell.trace.rps, rpsIndex ? 5.0 : 4.0) << i;
        EXPECT_EQ(cell.trace.burstMultiplier, burstIndex ? 3.0 : 1.0) << i;
        EXPECT_EQ(cell.trace.seed, 100u) << i;
        // Routers at one workload cell run the identical trace; the
        // four workload cells run four distinct ones.
        EXPECT_EQ(cell.traceIndex, 2 * rpsIndex + burstIndex) << i;
    }
    const sweep::SweepRunner runner(spec);
    const auto arrivals = [&runner](std::size_t index) {
        std::vector<sim::SimTime> out;
        for (const auto &r : runner.trace(index).requests())
            out.push_back(r.arrival);
        return out;
    };
    for (std::size_t a = 0; a < 4; ++a) {
        for (std::size_t b = a + 1; b < 4; ++b)
            EXPECT_NE(arrivals(a), arrivals(b)) << a << " vs " << b;
    }
    // Everything else is the sweep's workload: the splitwise preset.
    EXPECT_EQ((*cells)[0].trace.input,
              workload::splitwiseLike().input);
}

TEST(SweepExpand, AWorkloadAxisValueOutOfBoundsNamesTheCellAndKey)
{
    const auto error = expandError(R"({
      "systems": ["chameleon"],
      "axes": {"workload.burst_duration_s": [8, -30]}
    })");
    EXPECT_NE(error.find("sweep cell \"chameleon\" "
                         "(workload.burst_duration_s=-30)"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("workload.burst_duration_s must be >= 0"),
              std::string::npos)
        << error;
    const auto unknown = expandError(R"({
      "systems": ["chameleon"], "axes": {"workload.tenants": [2]}
    })");
    EXPECT_NE(unknown.find("\"workload.tenants\" is not a recognised key"),
              std::string::npos)
        << unknown;
}

TEST(SweepExpand, TraceTenantsAreTheCellsTenancyTenants)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon+wfq"],
      "axes": {"tenancy.tenants": [2, 4]},
      "workload": {"tenant_storm": 8.0}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 2u);
    EXPECT_EQ((*cells)[0].trace.numTenants, 2);
    EXPECT_EQ((*cells)[1].trace.numTenants, 4);
    // Different tenant counts are different traces, at one seed.
    EXPECT_NE((*cells)[0].traceIndex, (*cells)[1].traceIndex);
    EXPECT_EQ((*cells)[0].trace.seed, (*cells)[1].trace.seed);

    // A storm needs a second tenant to storm against.
    const auto lonely = expandError(R"({
      "systems": ["chameleon"], "workload": {"tenant_storm": 8.0}
    })");
    EXPECT_NE(lonely.find("tenancy.tenants = 1"), std::string::npos)
        << lonely;
}

TEST(SweepExpand, RpsPerReplicaScalesTheLoadAxis)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "workload": {"rps": 4.0},
      "rps_per_replica": true,
      "axes": {"cluster.replicas": [1, 2], "cluster.router": ["affinity"]}
    })");
    const auto cells = sweep::expandSweep(spec);
    ASSERT_TRUE(cells.has_value());
    ASSERT_EQ(cells->size(), 2u);
    EXPECT_EQ((*cells)[0].trace.rps, 4.0);
    EXPECT_EQ((*cells)[1].trace.rps, 8.0);
    EXPECT_NE((*cells)[0].traceIndex, (*cells)[1].traceIndex);
    EXPECT_EQ((*cells)[1].spec.cluster.replicas, 2);
    EXPECT_EQ((*cells)[1].spec.cluster.router,
              routing::RouterPolicy::AdapterAffinity);
}

TEST(SweepExpand, FleetAxisDeploysHeterogeneousCells)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "axes": {"cluster.fleet": ["a40x2", "a100x1+a40x1"],
               "cluster.router": ["jsq", "p2c"]}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 4u);
    // An ordinary axis: crossed in document order, the last fastest.
    EXPECT_EQ((*cells)[0].axisValue("cluster.fleet"), "a40x2");
    EXPECT_EQ((*cells)[0].axisValue("cluster.router"), "jsq");
    EXPECT_EQ((*cells)[1].axisValue("cluster.router"), "p2c");
    EXPECT_EQ((*cells)[1].spec.cluster.router,
              routing::RouterPolicy::PowerOfTwoChoices);
    EXPECT_EQ((*cells)[2].axisValue("cluster.fleet"), "a100x1+a40x1");
    // Each cell's replica count and per-replica engines come from its
    // fleet preset, applied onto the cell's engine.
    EXPECT_EQ((*cells)[0].spec.cluster.replicas, 2);
    ASSERT_EQ((*cells)[0].spec.cluster.replicaEngines.size(), 2u);
    EXPECT_EQ((*cells)[0].spec.cluster.replicaEngines[0].gpu.name,
              "a40-48g");
    EXPECT_EQ((*cells)[2].spec.cluster.replicas, 2);
    EXPECT_EQ((*cells)[2].spec.cluster.replicaEngines[0].gpu.name,
              "a100-80g");
    EXPECT_EQ((*cells)[2].spec.cluster.replicaEngines[1].gpu.name,
              "a40-48g");
    EXPECT_EQ((*cells)[2].spec.cluster.replicaEngines[0].model.name,
              "llama-7b");
    ASSERT_TRUE((*cells)[2].spec.validate().empty());
}

TEST(SweepJson, RejectsFleetsBesideReplicas)
{
    // A fleet fixes the replica count; cluster.fleet and
    // cluster.replicas would overwrite each other cell by cell.
    const auto error = expandError(R"({
      "systems": ["chameleon"],
      "axes": {"cluster.fleet": ["a40x2"], "cluster.replicas": [2]}
    })");
    EXPECT_NE(error.find("\"cluster.replicas\" and \"cluster.fleet\""),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("conflict"), std::string::npos) << error;
}

TEST(SweepJson, RejectsAMultiValuedAdaptersAxis)
{
    // The cells share one adapter pool, as they share one model.
    const auto error = expandError(R"({
      "systems": ["chameleon"], "axes": {"workload.adapters": [10, 20]}
    })");
    EXPECT_NE(error.find("\"workload.adapters\" takes one value"),
              std::string::npos)
        << error;
    // One value is a template like any other.
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"], "axes": {"workload.adapters": [10]}
    })");
    const auto cells = sweep::expandSweep(spec);
    ASSERT_TRUE(cells.has_value());
    EXPECT_EQ((*cells)[0].trace.numAdapters, 10);
}

TEST(SweepJson, RejectsAPresetAxis)
{
    const auto error = expandError(R"({
      "systems": ["chameleon"],
      "axes": {"workload.preset": ["splitwise", "lmsys"]}
    })");
    EXPECT_NE(error.find("\"workload.preset\" is not an axis"),
              std::string::npos)
        << error;
}

TEST(SweepExpand, UnknownFleetFailsTeachingTheGrammar)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"], "axes": {"cluster.fleet": ["h100x8"]}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    EXPECT_FALSE(cells.has_value());
    EXPECT_NE(error.find("h100x8"), std::string::npos) << error;
    EXPECT_NE(error.find("<gpu>x<count>"), std::string::npos) << error;
    EXPECT_NE(error.find("a100"), std::string::npos) << error;
}

TEST(SweepExpand, UnknownModifierTokenFailsWithGrammarMessage)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon+frobnicate"]
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    EXPECT_FALSE(cells.has_value());
    EXPECT_NE(error.find("chameleon+frobnicate"), std::string::npos)
        << error;
    EXPECT_NE(error.find("unknown system modifier"), std::string::npos)
        << error;
}

TEST(SweepExpand, UnknownRouterFailsWithKnownList)
{
    const auto error = expandError(R"({
      "systems": ["chameleon"], "axes": {"cluster.router": ["hash-ring"]}
    })");
    EXPECT_NE(error.find("cluster.router"), std::string::npos) << error;
    EXPECT_NE(error.find("hash-ring"), std::string::npos) << error;
    EXPECT_NE(error.find("affinity"), std::string::npos) << error;
}

TEST(SweepExpand, UnknownAxisPathListsItsSiblings)
{
    const auto error = expandError(R"({
      "systems": ["chameleon"], "axes": {"cluster.routr": ["p2c"]}
    })");
    EXPECT_NE(error.find("cluster.routr"), std::string::npos) << error;
    EXPECT_NE(error.find("router, router_config"), std::string::npos)
        << error;
}

TEST(SweepExpand, PathAxesCrossAfterDeploymentInDocumentOrder)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "axes": {"cluster.replicas": [2, 3],
               "fabric.migration": ["off", "all"],
               "cluster.router": ["jsq", "p2c", "rr"]}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 12u);
    // Replicas outermost, then the axes as written, the last fastest.
    const char *routers[] = {"jsq", "p2c", "rr"};
    for (std::size_t i = 0; i < cells->size(); ++i) {
        const auto &cell = (*cells)[i];
        EXPECT_EQ(cell.spec.cluster.replicas, i < 6 ? 2 : 3) << i;
        EXPECT_EQ(cell.axisValue("fabric.migration"),
                  (i / 3) % 2 ? "all" : "off")
            << i;
        EXPECT_EQ(cell.axisValue("cluster.router"), routers[i % 3]) << i;
        ASSERT_EQ(cell.overrides.size(), 3u);
        EXPECT_EQ(cell.overrides[1].first, "fabric.migration");
    }
    EXPECT_EQ((*cells)[5].axesLabel(),
              "cluster.replicas=2, fabric.migration=all, cluster.router=rr");
    EXPECT_EQ((*cells)[5].spec.fabric.migration,
              fabric::MigrationPolicy::All);
    EXPECT_EQ((*cells)[5].spec.cluster.router,
              routing::RouterPolicy::RoundRobin);
    EXPECT_EQ((*cells)[5].spec.cluster.replicas, 2);
}

TEST(SweepExpand, SingleValuedAxisIsATemplate)
{
    const auto spec = parseSweep(R"({
      "systems": ["slora", "chameleon"],
      "axes": {"workload.rps": [4.0, 6.0],
               "engine.max_running": [64],
               "scheduler.slo_seconds": [3.5]}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    // No extra cells: the grid is still systems x loads.
    ASSERT_EQ(cells->size(), 4u);
    for (const auto &cell : *cells) {
        EXPECT_EQ(cell.spec.engine.maxRunning, 64);
        EXPECT_EQ(cell.spec.scheduler.sloSeconds, 3.5);
        EXPECT_EQ(cell.axisValue("engine.max_running"), "64");
    }
    // Everything the axes leave alone is the registered system's.
    EXPECT_EQ((*cells)[0].spec.scheduler.policy,
              core::SchedulerPolicy::Fifo);
    EXPECT_EQ((*cells)[2].spec.scheduler.policy,
              core::SchedulerPolicy::Mlq);
}

TEST(SweepExpand, FleetFollowsAnEngineAxis)
{
    // The deployment is applied as an override in the same tree, so a
    // fleet's per-replica engines pick up the cell's engine axis.
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "axes": {"cluster.fleet": ["a40x1+a100x1"],
               "engine.model": ["llama-13b"]}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 1u);
    const auto &engines = (*cells)[0].spec.cluster.replicaEngines;
    ASSERT_EQ(engines.size(), 2u);
    EXPECT_EQ(engines[0].model.name, "llama-13b");
    EXPECT_EQ(engines[1].gpu.name, "a100-80g");
}

TEST(SweepRunner, BuildsTheAdapterPoolForTheCellsModel)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "axes": {"engine.model": ["llama-13b"]},
      "workload": {"preset": "splitwise", "duration_s": 10, "adapters": 8}
    })");
    const sweep::SweepRunner runner(spec);
    ASSERT_NE(runner.pool(), nullptr);
    EXPECT_EQ(runner.pool()->maxBytes(),
              model::AdapterPool(model::llama13B(), 8).maxBytes());
}

// ---------------------------------------------------------------------
// The example sweeps' expansions, pinned.
// ---------------------------------------------------------------------

namespace {

std::string
lengthText(const workload::LengthDist &d)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g/%.17g/%lld/%lld", d.median,
                  d.sigma, static_cast<long long>(d.minTokens),
                  static_cast<long long>(d.maxTokens));
    return buf;
}

/** Every field of a trace configuration, doubles at full precision. */
std::string
traceConfigText(const workload::TraceGenConfig &wl)
{
    std::ostringstream os;
    os.precision(17);
    os << "rps=" << wl.rps << " duration=" << wl.durationSeconds
       << " input=" << lengthText(wl.input)
       << " output=" << lengthText(wl.output)
       << " adapters=" << wl.numAdapters
       << " rank_pop=" << static_cast<int>(wl.rankPopularity)
       << " adapter_pop=" << static_cast<int>(wl.adapterPopularity)
       << " bursts=";
    for (const auto &b : wl.bursts)
        os << b.startSeconds << "/" << b.endSeconds << "/"
           << b.rateMultiplier << ";";
    os << " burst=" << wl.burstMultiplier << "/" << wl.burstPeriodSeconds
       << "/" << wl.burstDurationSeconds << " seed=" << wl.seed
       << " tenants=" << wl.numTenants << " storm=" << wl.stormMultiplier;
    return os.str();
}

/** One line per cell: system, spec hash, trace configuration, trace
 * seed and trace index, in cell order. */
std::string
expansionText(const std::string &text)
{
    std::string error;
    const auto spec = sweep::sweepFromJson(text, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    if (!spec.has_value())
        return "";
    const auto cells = sweep::expandSweep(*spec, &error);
    EXPECT_TRUE(cells.has_value()) << error;
    if (!cells.has_value())
        return "";
    std::ostringstream os;
    for (const auto &cell : *cells) {
        char hash[19];
        std::snprintf(hash, sizeof(hash), "0x%016llx",
                      static_cast<unsigned long long>(
                          core::fnv1a64(core::specToJson(cell.spec))));
        os << cell.system << " | " << hash << " | "
           << traceConfigText(cell.trace) << " | " << cell.trace.seed
           << " | " << cell.traceIndex << "\n";
    }
    return os.str();
}

} // namespace

TEST(SweepExamples, ExpansionsArePinned)
{
    // {cells, fnv1a64 of expansionText}: a grammar change must leave
    // every example's cells, specs and traces exactly as they were.
    const std::map<std::string, std::pair<std::size_t, std::uint64_t>>
        pins = {
            {"autoscale_step.json", {2, 0xfb44353401e0e2e3ull}},
            {"ci_smoke.json", {12, 0x23233f63d3118bb3ull}},
            {"fabric_smoke.json", {4, 0xf36c67db38048bddull}},
            {"fig17_policy_grid.json", {5, 0xa7f30981b9ca2894ull}},
            {"hetero_fleet.json", {12, 0x04b70aa468bd17d0ull}},
            {"minimal.json", {2, 0xed9f12db7bc06c3bull}},
            {"noisy_neighbour.json", {3, 0x230cebfde0ecb6c1ull}},
        };
    const auto dir =
        std::filesystem::path(__FILE__).parent_path().parent_path() /
        "examples" / "sweeps";
    std::set<std::string> seen;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        seen.insert(name);
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        const std::string expansion = expansionText(text.str());
        const auto pin = pins.find(name);
        ASSERT_NE(pin, pins.end()) << "no pin for " << name;
        std::size_t cells = 0;
        for (const char c : expansion)
            cells += c == '\n';
        char hash[19];
        std::snprintf(hash, sizeof(hash), "0x%016llx",
                      static_cast<unsigned long long>(
                          core::fnv1a64(expansion)));
        EXPECT_EQ(cells, pin->second.first) << name;
        EXPECT_EQ(core::fnv1a64(expansion), pin->second.second)
            << name << " expands to (hash " << hash << "):\n"
            << expansion;
    }
    EXPECT_EQ(seen.size(), pins.size());
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(SweepRunner, SameJsonAndSeedProducesIdenticalBenchJson)
{
    const auto spec = parseSweep(kSmallSweep);
    sweep::SweepRunner first(spec);
    sweep::SweepRunner second(spec);
    const auto a = first.runToBenchJson().toString();
    const auto b = second.runToBenchJson().toString();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(SweepRunner, ThreadCountDoesNotChangeTheDocument)
{
    auto spec = parseSweep(kSmallSweep);
    spec.threads = 1;
    sweep::SweepRunner serial(spec);
    spec.threads = 4;
    sweep::SweepRunner threaded(spec);
    EXPECT_EQ(serial.runToBenchJson().toString(),
              threaded.runToBenchJson().toString());
}

TEST(SweepRunner, ThreadStressAt100kRequestsKeepsHashesAndBytes)
{
    // Determinism at scale: ~113k simulated requests across 8 cells,
    // run with 1, 2, and 8 worker threads. The consolidated BenchJson
    // must be byte-identical and every cell's event_hash — the FNV
    // fingerprint of its full canonical event stream — must match,
    // i.e. thread scheduling cannot leak into any simulation.
    auto spec = parseSweep(R"({
      "name": "stress",
      "systems": ["slora", "chameleon"],
      "axes": {"workload.rps": [30.0, 40.0], "cluster.replicas": [2, 4]},
      "workload": {"preset": "splitwise", "duration_s": 400,
                   "adapters": 32},
      "seed": 21
    })");

    std::vector<std::string> documents;
    for (const int threads : {1, 2, 8}) {
        spec.threads = threads;
        documents.push_back(
            sweep::SweepRunner(spec).runToBenchJson().toString());
    }
    EXPECT_EQ(documents[0], documents[1]);
    EXPECT_EQ(documents[0], documents[2]);

    // Byte equality already implies hash equality; now check the
    // hashes themselves are present, well-formed, and that the grid
    // really ran at the promised scale.
    const auto doc = sim::parseJson(documents[0]);
    ASSERT_TRUE(doc.has_value());
    const sim::JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items().size(), 8u);
    std::int64_t submitted = 0;
    for (const auto &row : rows->items()) {
        const sim::JsonValue *hash = row.find("event_hash");
        ASSERT_NE(hash, nullptr);
        const std::string &text = hash->asString();
        ASSERT_EQ(text.size(), 18u) << text;
        EXPECT_EQ(text.substr(0, 2), "0x") << text;
        EXPECT_NE(text, "0x0000000000000000")
            << "a zero hash means the stream was never hashed";
        submitted += static_cast<std::int64_t>(
            row.find("submitted")->asNumber());
    }
    EXPECT_GE(submitted, 100000) << "grid shrank below 100k-request "
                                    "scale; enlarge the stress sweep";
}

TEST(SweepRunner, RunsEveryCellOverTheSharedTrace)
{
    const auto spec = parseSweep(kSmallSweep);
    sweep::SweepRunner runner(spec);
    const auto results = runner.run();
    ASSERT_EQ(results.size(), 4u);
    std::set<std::string> systems;
    for (const auto &result : results) {
        systems.insert(result.cell.system);
        // Everything submitted on these short traces finishes.
        EXPECT_GT(result.report.stats.submitted, 0);
        EXPECT_EQ(result.report.stats.finished,
                  result.report.stats.submitted);
    }
    EXPECT_EQ(systems.size(), 2u);
    // Identical arrivals at a load: submitted counts match per trace.
    EXPECT_EQ(results[0].report.stats.submitted,
              results[2].report.stats.submitted);
    EXPECT_EQ(results[1].report.stats.submitted,
              results[3].report.stats.submitted);
}

// ---------------------------------------------------------------------
// Rows and the baseline gate.
// ---------------------------------------------------------------------

TEST(SweepRunner, RowsCarryOneColumnPerAxisNamedByItsPath)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "axes": {"cluster.replicas": [2],
               "cluster.router": ["rr", "p2c"],
               "cluster.autoscale": [false]},
      "workload": {"preset": "splitwise", "rps": 4.0, "duration_s": 10,
                   "adapters": 8}
    })");
    const auto doc =
        sim::parseJson(sweep::SweepRunner(spec).runToBenchJson().toString());
    ASSERT_TRUE(doc.has_value());
    const auto &rows = doc->find("rows")->items();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].find("cluster.router")->asString(), "rr");
    EXPECT_EQ(rows[1].find("cluster.router")->asString(), "p2c");
    EXPECT_FALSE(rows[1].find("cluster.autoscale")->asBool());
    // The retired per-knob columns are gone.
    for (const char *retired :
         {"router", "autoscale", "demand_source", "boot_aware_horizon",
          "slo_admission", "migration", "topology", "fleet"})
        EXPECT_EQ(rows[0].find(retired), nullptr) << retired;
    // Axis columns sit between the replica count and trace_seed.
    const auto &members = rows[0].members();
    EXPECT_EQ(members[2].first, "replicas");
    EXPECT_EQ(members[3].first, "cluster.replicas");
    EXPECT_EQ(members[4].first, "cluster.router");
    EXPECT_EQ(members[5].first, "cluster.autoscale");
    EXPECT_EQ(members[6].first, "trace_seed");
}

TEST(BaselineDiff, DottedAxisColumnsAreCellIdentity)
{
    auto doc = [](const char *router, const char *hash) {
        return *sim::parseJson(
            std::string(R"({"rows": [{"system": "chameleon", )") +
            R"("cluster.router": ")" + router + R"(", "p99_ttft_s": 1.0, )" +
            R"("event_hash": ")" + hash + R"("}]})");
    };
    const auto same =
        sweep::diffAgainstBaseline(doc("rr", "0x1"), doc("rr", "0x1"));
    EXPECT_TRUE(same.structural.empty());
    EXPECT_TRUE(same.hashMismatches.empty());
    // A moved axis value means the rows no longer describe the same
    // cell: structural, not numeric drift.
    const auto moved =
        sweep::diffAgainstBaseline(doc("p2c", "0x1"), doc("rr", "0x1"));
    ASSERT_EQ(moved.structural.size(), 1u);
    EXPECT_NE(moved.structural[0].find("identity \"cluster.router\""),
              std::string::npos)
        << moved.structural[0];
    EXPECT_TRUE(moved.drifts.empty());
}
