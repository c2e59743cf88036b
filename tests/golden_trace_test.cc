/**
 * @file
 * Golden-trace determinism suite: pins the cluster event stream.
 *
 * Every PR so far has promised "cluster event streams stay
 * bit-identical" and verified it by hand. This suite makes the promise
 * a standing CI assertion: for each of the 5 routing policies x
 * {homogeneous, heterogeneous fleet} x {autoscale off, autoscale on}
 * at a fixed seed, the full merged per-request record stream (plus the
 * scaling counters) is serialised into a canonical CSV and its FNV-1a
 * hash compared against a pinned constant.
 *
 * The pins encode the PR 4 event streams under the default autoscaler
 * realism knobs (bootMs = 0, scaleUpPolicy = default,
 * measuredRateAlpha = 0) — the documented backward-compatibility
 * contract of the cold-start/hetero-autoscaler work. A pin mismatch
 * means a change altered simulation behaviour: either fix the change
 * or, if the new behaviour is intended, update the pin in the same PR
 * with a CHANGES.md note.
 *
 * Regenerating pins: run with CHM_GOLDEN_PRINT=1 in the environment;
 * each test prints its scenario name and hash instead of failing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/live_request.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

constexpr std::uint64_t kSeed = 1234;

/**
 * The canonical stream and hash now live in the library
 * (core::canonicalEventStream / core::fnv1a64) so sweeps and
 * `chameleon_sweep --baseline` fingerprint cells in this suite's exact
 * format; the pins below — recorded against the test's original local
 * serialiser — staying green is the proof the library emits the same
 * bytes. RunReport::eventHash is the same value end-to-end, asserted
 * per scenario: the Runner hashes the stream line by line
 * (core::eventStreamHash) without building the text, so the equality
 * proves its hashing sink and the string sink agree.
 */
std::uint64_t
canonicalHash(core::Runner &runner, const core::RunReport &report)
{
    const std::uint64_t hash = core::fnv1a64(
        core::canonicalEventStream(runner.cluster(), report));
    EXPECT_EQ(hash, report.eventHash);
    return hash;
}

/** Doubles by bit pattern, so the report pins below are exact. */
std::uint64_t
bitsOf(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/**
 * The report's SLO and slowdown doubles, which the event-stream hash
 * does not cover: run-wide sloSeconds, sloAttainment and
 * fairnessIndex, then meanSlowdown, p99Slowdown and sloAttainment of
 * every tenant in report order.
 */
std::vector<std::uint64_t>
reportFloatBits(const core::RunReport &report)
{
    std::vector<std::uint64_t> bits = {bitsOf(report.sloSeconds),
                                       bitsOf(report.sloAttainment),
                                       bitsOf(report.fairnessIndex)};
    for (const auto &tenant : report.tenants) {
        bits.push_back(bitsOf(tenant.meanSlowdown));
        bits.push_back(bitsOf(tenant.p99Slowdown));
        bits.push_back(bitsOf(tenant.sloAttainment));
    }
    return bits;
}

/** A scenario's event-stream hash and report float bits. */
struct Outcome
{
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> floatBits;
};

/** `affinity-cache` as the spec and CLI parse it. */
routing::RouterPolicy
affinityCache()
{
    routing::RouterPolicy policy{};
    EXPECT_TRUE(routing::routerPolicyByName("affinity-cache", &policy));
    return policy;
}

/**
 * The scenarios' trace: one simulated minute at 10 RPS over 40
 * adapters. A mid-trace burst forces scale-ups; the quiet tail drains
 * again, so the autoscale scenarios pin both transitions.
 */
workload::Trace
burstTrace(const model::AdapterPool &pool)
{
    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 40;
    wl.seed = kSeed;
    wl.bursts.push_back(workload::Burst{15.0, 35.0, 3.0});
    workload::TraceGenerator gen(wl, &pool);
    return gen.generate();
}

/** One golden scenario: system x router x fleet shape x autoscale,
 * optionally with cache-fabric peer migration on every trigger. */
Outcome
runScenario(const std::string &system, routing::RouterPolicy router,
            bool hetero, bool autoscale,
            fabric::MigrationPolicy migration = fabric::MigrationPolicy::Off,
            fabric::TopologyKind topology = fabric::TopologyKind::PciePeer,
            std::size_t fabricTopK = 4)
{
    model::AdapterPool pool(model::llama7B(), 40);

    auto spec = core::SystemRegistry::global().lookup(system);
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.router = router;
    spec.cluster.routerConfig.seed = kSeed;
    spec.predictor.seed = kSeed;
    spec.fabric.migration = migration;
    spec.fabric.topology = topology;
    spec.fabric.topK = fabricTopK;
    spec.cluster.replicas = hetero ? 2 : 3;
    if (hetero) {
        serving::EngineConfig fast = spec.engine;
        fast.gpu = model::a100(48);
        spec.cluster.replicaEngines = {fast, spec.engine};
    }
    if (autoscale) {
        spec.cluster.autoscale = true;
        spec.cluster.autoscaler.minReplicas = 1;
        spec.cluster.autoscaler.maxReplicas = 4;
        spec.cluster.autoscaler.replicaServiceRps = 6.0;
        spec.cluster.autoscaler.downCooldownPeriods = 2;
    }

    const auto trace = burstTrace(pool);
    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    // Sanity besides the hash: nothing may be lost or stuck.
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    return {canonicalHash(runner, report), reportFloatBits(report)};
}

void
expectSystemGolden(const std::string &system, routing::RouterPolicy router,
                   bool hetero, bool autoscale, std::uint64_t pinned)
{
    const std::uint64_t hash =
        runScenario(system, router, hetero, autoscale).hash;
    if (std::getenv("CHM_GOLDEN_PRINT") != nullptr) {
        std::printf("GOLDEN %s %s %s %s 0x%016llxull\n", system.c_str(),
                    routing::routerPolicyName(router),
                    hetero ? "hetero" : "homog",
                    autoscale ? "autoscale" : "fixed",
                    static_cast<unsigned long long>(hash));
        return;
    }
    EXPECT_EQ(hash, pinned)
        << "event stream diverged for system " << system << ", router "
        << routing::routerPolicyName(router)
        << (hetero ? ", hetero fleet" : ", homogeneous fleet")
        << (autoscale ? ", autoscale on" : ", autoscale off")
        << "; if the change is intended, rerun with CHM_GOLDEN_PRINT=1 "
        << "and update the pin (note it in CHANGES.md)";
}

void
expectGolden(routing::RouterPolicy router, bool hetero, bool autoscale,
             std::uint64_t pinned)
{
    expectSystemGolden("chameleon", router, hetero, autoscale, pinned);
}

/**
 * One tenancy golden scenario: fair scheduler x tenant shape x
 * autoscale, over a 2-replica JSQ cluster. Storm runs measure under
 * the bounded fig29 drain window (the backlog is the interesting
 * state), so `finished == trace.size()` is only asserted without one.
 */
Outcome
runTenantScenario(const char *scheduler, int tenants, bool storm,
                  bool autoscale)
{
    model::AdapterPool pool(model::llama7B(), 40);

    auto spec = core::SystemRegistry::global().lookup(
        std::string("chameleon+") + scheduler);
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
    spec.cluster.routerConfig.seed = kSeed;
    spec.predictor.seed = kSeed;
    spec.cluster.replicas = 2;
    spec.tenancy.tenants = tenants;
    if (autoscale) {
        spec.cluster.autoscale = true;
        spec.cluster.autoscaler.minReplicas = 1;
        spec.cluster.autoscaler.maxReplicas = 4;
        spec.cluster.autoscaler.replicaServiceRps = 6.0;
        spec.cluster.autoscaler.downCooldownPeriods = 2;
    }

    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 40;
    wl.seed = kSeed;
    wl.numTenants = tenants;
    if (storm)
        wl.stormMultiplier = 8.0; // CLI/sweep/fig29 storm
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    core::Runner runner(spec, &pool);
    const auto report =
        runner.run(trace, storm ? 30 * sim::kSec : 3600 * sim::kSec);
    if (storm) {
        EXPECT_GT(report.stats.finished, 0);
    } else {
        EXPECT_EQ(report.stats.finished,
                  static_cast<std::int64_t>(trace.size()));
    }
    return {canonicalHash(runner, report), reportFloatBits(report)};
}

void
expectFabricGolden(routing::RouterPolicy router, bool hetero,
                   bool autoscale, std::uint64_t pinned)
{
    const std::uint64_t hash =
        runScenario("chameleon", router, hetero, autoscale,
                    fabric::MigrationPolicy::All)
            .hash;
    if (std::getenv("CHM_GOLDEN_PRINT") != nullptr) {
        std::printf("GOLDEN fabric %s %s %s 0x%016llxull\n",
                    routing::routerPolicyName(router),
                    hetero ? "hetero" : "homog",
                    autoscale ? "autoscale" : "fixed",
                    static_cast<unsigned long long>(hash));
        return;
    }
    EXPECT_EQ(hash, pinned)
        << "event stream diverged for router "
        << routing::routerPolicyName(router)
        << (hetero ? ", hetero fleet" : ", homogeneous fleet")
        << (autoscale ? ", autoscale on" : ", autoscale off")
        << ", migration all"
        << "; if the change is intended, rerun with CHM_GOLDEN_PRINT=1 "
        << "and update the pin (note it in CHANGES.md)";
}

void
expectTenantGolden(const char *scheduler, int tenants, bool storm,
                   bool autoscale, std::uint64_t pinned)
{
    const std::uint64_t hash =
        runTenantScenario(scheduler, tenants, storm, autoscale).hash;
    if (std::getenv("CHM_GOLDEN_PRINT") != nullptr) {
        std::printf("GOLDEN %s %s %s 0x%016llxull\n", scheduler,
                    storm ? "storm4" : "single",
                    autoscale ? "autoscale" : "fixed",
                    static_cast<unsigned long long>(hash));
        return;
    }
    EXPECT_EQ(hash, pinned)
        << "event stream diverged for scheduler " << scheduler << ", "
        << tenants << " tenant(s)" << (storm ? " (storm)" : "")
        << (autoscale ? ", autoscale on" : ", autoscale off")
        << "; if the change is intended, rerun with CHM_GOLDEN_PRINT=1 "
        << "and update the pin (note it in CHANGES.md)";
}

/**
 * The hashes of what a run exports besides its event stream: the
 * metrics snapshot (`--metrics-out`) and the per-request records CSV
 * (`--records-csv`) of a Chameleon cluster of `replicas` JSQ replicas
 * on the burst trace.
 */
std::vector<std::uint64_t>
exportHashes(int replicas)
{
    model::AdapterPool pool(model::llama7B(), 40);
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
    spec.cluster.routerConfig.seed = kSeed;
    spec.predictor.seed = kSeed;
    spec.cluster.replicas = replicas;
    const auto trace = burstTrace(pool);
    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    std::ostringstream csv;
    serving::writeRecordsCsv(csv, report.stats.records);
    return {core::fnv1a64(report.metrics.dump()), core::fnv1a64(csv.str())};
}

/**
 * Compare a scenario's report values against its pin list, or print
 * the list under CHM_GOLDEN_PRINT.
 */
void
expectReportPins(const char *scenario,
                   const std::vector<std::uint64_t> &bits,
                   const std::vector<std::uint64_t> &pinned)
{
    if (std::getenv("CHM_GOLDEN_PRINT") != nullptr) {
        std::printf("GOLDEN report %s {", scenario);
        for (std::size_t i = 0; i < bits.size(); ++i) {
            std::printf("%s0x%016llxull", i == 0 ? "" : ", ",
                        static_cast<unsigned long long>(bits[i]));
        }
        std::printf("}\n");
        return;
    }
    EXPECT_EQ(bits, pinned)
        << "report values diverged for " << scenario
        << "; if the change is intended, rerun with CHM_GOLDEN_PRINT=1 "
        << "and update the pin (note it in CHANGES.md)";
}

} // namespace

// Pins: PR 4 behaviour, except the four *HeteroAutoscale scenarios
// below RrHeteroAutoscale, re-pinned when forecast demand became
// hetero-aware (demand divides by the active set's aggregate nominal
// rate instead of assuming every replica is the reference — mixed
// fleets now scale differently by design; homogeneous decisions are
// arithmetically identical). The AffinityCache* rows parse
// "affinity-cache", an alias of affinity-dir since the per-replica
// residency scan was removed: the directory router reproduces the
// scan's streams byte for byte. Regenerate with CHM_GOLDEN_PRINT=1.
// clang-format off
TEST(GoldenTrace, RrHomogFixed)            { expectGolden(routing::RouterPolicy::RoundRobin,                0, 0, 0xf45b4dbc974c73cfull); }
TEST(GoldenTrace, JsqHomogFixed)           { expectGolden(routing::RouterPolicy::JoinShortestQueue,         0, 0, 0x193d20557899761bull); }
TEST(GoldenTrace, P2cHomogFixed)           { expectGolden(routing::RouterPolicy::PowerOfTwoChoices,         0, 0, 0xb33267c63ea4d6c9ull); }
TEST(GoldenTrace, AffinityHomogFixed)      { expectGolden(routing::RouterPolicy::AdapterAffinity,           0, 0, 0x1aa30a8968024212ull); }
TEST(GoldenTrace, AffinityCacheHomogFixed) { expectGolden(affinityCache(), 0, 0, 0x483cf354defc6814ull); }
TEST(GoldenTrace, RrHeteroFixed)           { expectGolden(routing::RouterPolicy::RoundRobin,                1, 0, 0xdbbe92547cd999dfull); }
TEST(GoldenTrace, JsqHeteroFixed)          { expectGolden(routing::RouterPolicy::JoinShortestQueue,         1, 0, 0x3db81f8a9caf860aull); }
TEST(GoldenTrace, P2cHeteroFixed)          { expectGolden(routing::RouterPolicy::PowerOfTwoChoices,         1, 0, 0x3db81f8a9caf860aull); }
TEST(GoldenTrace, AffinityHeteroFixed)     { expectGolden(routing::RouterPolicy::AdapterAffinity,           1, 0, 0xdf56f8fc9cb131b5ull); }
TEST(GoldenTrace, AffinityCacheHeteroFixed){ expectGolden(affinityCache(), 1, 0, 0xe3be4ec701d59bf8ull); }
TEST(GoldenTrace, RrHomogAutoscale)        { expectGolden(routing::RouterPolicy::RoundRobin,                0, 1, 0x4e78f9da29d7041eull); }
TEST(GoldenTrace, JsqHomogAutoscale)       { expectGolden(routing::RouterPolicy::JoinShortestQueue,         0, 1, 0x85f1a69cef347113ull); }
TEST(GoldenTrace, P2cHomogAutoscale)       { expectGolden(routing::RouterPolicy::PowerOfTwoChoices,         0, 1, 0x82c7dbbf2b52285bull); }
TEST(GoldenTrace, AffinityHomogAutoscale)  { expectGolden(routing::RouterPolicy::AdapterAffinity,           0, 1, 0x59c5c13a7274a4a4ull); }
TEST(GoldenTrace, AffinityCacheHomogAutoscale) { expectGolden(affinityCache(), 0, 1, 0xcfd70ffd4810e543ull); }
TEST(GoldenTrace, RrHeteroAutoscale)       { expectGolden(routing::RouterPolicy::RoundRobin,                1, 1, 0x7f6cc439abd705e2ull); }
TEST(GoldenTrace, JsqHeteroAutoscale)      { expectGolden(routing::RouterPolicy::JoinShortestQueue,         1, 1, 0xd54b21c7c4bab637ull); }
TEST(GoldenTrace, P2cHeteroAutoscale)      { expectGolden(routing::RouterPolicy::PowerOfTwoChoices,         1, 1, 0x7f73bdfe8bd9a647ull); }
TEST(GoldenTrace, AffinityHeteroAutoscale) { expectGolden(routing::RouterPolicy::AdapterAffinity,           1, 1, 0xf6e8487ed39745b1ull); }
TEST(GoldenTrace, AffinityCacheHeteroAutoscale) { expectGolden(affinityCache(), 1, 1, 0x748730f518247018ull); }

// S-LoRA pins: the baseline adapter manager (discard-on-idle, queued
// prefetch) under affinity-cache with migration off, so cache-aware
// routing is pinned for a manager other than the Chameleon cache.
TEST(GoldenTrace, SloraAffinityCacheHomogFixed)      { expectSystemGolden("slora", affinityCache(), 0, 0, 0xbb519a22398348b3ull); }
TEST(GoldenTrace, SloraAffinityCacheHeteroFixed)     { expectSystemGolden("slora", affinityCache(), 1, 0, 0xe86db313f57cf30dull); }
TEST(GoldenTrace, SloraAffinityCacheHomogAutoscale)  { expectSystemGolden("slora", affinityCache(), 0, 1, 0x54cb9ab5e5ba6bd7ull); }
TEST(GoldenTrace, SloraAffinityCacheHeteroAutoscale) { expectSystemGolden("slora", affinityCache(), 1, 1, 0x3b87fa353ae8baadull); }

// Tenancy pins: PR 7 fair-scheduler behaviour ({wfq, drr} x
// {single-tenant, 4-tenant storm} x {fixed, autoscale}), recorded
// before the PR 8 event-queue/pool rebuild and asserted unchanged
// across it. Storm runs use the bounded fig29 drain window.
// Cache-fabric pins: affinity-dir x {homog, hetero}
// x {fixed, autoscale} with migration "all" over the pcie peer
// topology. Fixed fleets never trigger a migration (the only remap is
// at construction, before any heat exists), so those four pin that the
// fabric machinery is inert without a reshape; the autoscale pins
// cover real peer-warm scale-up traffic. Regenerate with
// CHM_GOLDEN_PRINT=1.
TEST(GoldenTrace, FabricDirHomogFixed)          { expectFabricGolden(routing::RouterPolicy::AdapterAffinityDirectory,  0, 0, 0x483cf354defc6814ull); }
TEST(GoldenTrace, FabricDirHeteroFixed)         { expectFabricGolden(routing::RouterPolicy::AdapterAffinityDirectory,  1, 0, 0xe3be4ec701d59bf8ull); }
TEST(GoldenTrace, FabricDirHomogAutoscale)      { expectFabricGolden(routing::RouterPolicy::AdapterAffinityDirectory,  0, 1, 0x6bbfe18965fcf889ull); }
TEST(GoldenTrace, FabricDirHeteroAutoscale)     { expectFabricGolden(routing::RouterPolicy::AdapterAffinityDirectory,  1, 1, 0xd568b212e4e944caull); }

TEST(GoldenTrace, WfqSingleFixed)     { expectTenantGolden("wfq", 1, 0, 0, 0xdf5c533bcbfe241aull); }
TEST(GoldenTrace, WfqStormFixed)      { expectTenantGolden("wfq", 4, 1, 0, 0xcb4051efba9cf7d0ull); }
TEST(GoldenTrace, WfqStormAutoscale)  { expectTenantGolden("wfq", 4, 1, 1, 0xf53244aa63814caeull); }
TEST(GoldenTrace, DrrSingleFixed)     { expectTenantGolden("drr", 1, 0, 0, 0xddad91f8d3d13595ull); }
TEST(GoldenTrace, DrrStormFixed)      { expectTenantGolden("drr", 4, 1, 0, 0x67486ae747e7f57bull); }
TEST(GoldenTrace, DrrStormAutoscale)  { expectTenantGolden("drr", 4, 1, 1, 0x3b3c8e13ca97af96ull); }
// clang-format on

/**
 * Knobs-on pin for the PR 10 closed-loop control plane: measured
 * demand, boot-aware horizon and SLO admission all enabled on the
 * hetero autoscale scenario. One constant covers the whole closed
 * loop; it must also diverge from the knobs-off stream, or the knobs
 * are dead.
 */
TEST(GoldenTrace, ClosedLoopHeteroAutoscale)
{
    model::AdapterPool pool(model::llama7B(), 40);

    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
    spec.cluster.routerConfig.seed = kSeed;
    spec.cluster.routerConfig.sloAdmission = true;
    spec.predictor.seed = kSeed;
    spec.cluster.replicas = 2;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    spec.cluster.replicaEngines = {fast, spec.engine};
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 1;
    spec.cluster.autoscaler.maxReplicas = 4;
    spec.cluster.autoscaler.replicaServiceRps = 6.0;
    spec.cluster.autoscaler.downCooldownPeriods = 2;
    spec.cluster.autoscaler.bootMs = 8000.0;
    spec.cluster.autoscaler.measuredRateAlpha = 0.3; // measured demand
    spec.cluster.autoscaler.bootAwareHorizon = true;
    spec.tenancy.tenants = 2;
    spec.tenancy.sloMultipliers = {0.5, 2.0};
    ASSERT_TRUE(spec.validate().empty());

    auto wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 60.0;
    wl.numAdapters = 40;
    wl.numTenants = 2;
    wl.seed = kSeed;
    wl.bursts.push_back(workload::Burst{15.0, 35.0, 3.0});
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    const std::uint64_t hash = canonicalHash(runner, report);
    if (std::getenv("CHM_GOLDEN_PRINT") != nullptr) {
        std::printf("GOLDEN closed-loop hetero autoscale 0x%016llxull\n",
                    static_cast<unsigned long long>(hash));
        return;
    }
    EXPECT_EQ(hash, 0x6e08a3f6bde9cae5ull)
        << "closed-loop knobs-on event stream diverged; if the change "
        << "is intended, rerun with CHM_GOLDEN_PRINT=1 and update the "
        << "pin (note it in CHANGES.md)";
    // And the knobs must actually matter.
    EXPECT_NE(hash, runScenario("chameleon",
                                routing::RouterPolicy::JoinShortestQueue,
                                true, true)
                        .hash);
}

/**
 * One Chameleon engine under memory pressure: the rare engine paths
 * that no pin above reaches. `pool` and `gpu` set the hardware, the
 * workload draws uniformly from the pool, and `configure` adjusts the
 * spec before the run.
 */
template <typename Configure>
core::RunReport
runPressureScenario(const model::AdapterPool &pool, model::GpuSpec gpu,
                    double rps, Configure configure)
{
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = gpu;
    spec.predictor.seed = kSeed;
    spec.cluster.replicas = 1;
    configure(spec);
    EXPECT_TRUE(spec.validate().empty());

    auto wl = workload::splitwiseLike();
    wl.rps = rps;
    wl.durationSeconds = 60.0;
    wl.numAdapters = pool.size();
    wl.adapterPopularity = workload::Popularity::Uniform;
    wl.seed = kSeed;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    core::Runner runner(spec, &pool);
    auto report = runner.run(trace);
    EXPECT_EQ(report.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    canonicalHash(runner, report);
    return report;
}

void
expectPressureGolden(const char *scenario, std::uint64_t hash,
                     std::uint64_t pinned)
{
    if (std::getenv("CHM_GOLDEN_PRINT") != nullptr) {
        std::printf("GOLDEN %s 0x%016llxull\n", scenario,
                    static_cast<unsigned long long>(hash));
        return;
    }
    EXPECT_EQ(hash, pinned)
        << "event stream diverged for " << scenario
        << "; if the change is intended, rerun with CHM_GOLDEN_PRINT=1 "
        << "and update the pin (note it in CHANGES.md)";
}

/**
 * Preemption pin: an under-predicting length predictor sizes each
 * prediction-driven KV reservation short, and a large workspace leaves
 * a tight KV pool, so decode growth runs out of memory and the engine
 * preempts its youngest running request.
 */
TEST(GoldenTrace, ChameleonPreemptsUnderKvPressure)
{
    model::AdapterPool pool(model::llama7B(), 40);
    const auto report =
        runPressureScenario(pool, model::a40(), 10.0, [](auto &spec) {
            spec.predictor.accuracy = 0.2;
            spec.engine.workspacePerGpu = 30ll << 30;
        });
    EXPECT_GT(report.stats.preemptions, 0);
    expectPressureGolden("chameleon preempt", report.eventHash,
                         0xe2cfa1a54b72e480ull);
}

/**
 * Bypass-squash pin: rank-128 adapters (268 MB each) on an A100-24G,
 * where in-use adapters and KV fill request memory, so queue heads
 * block on adapter memory, younger requests bypass them, and wrong
 * guesses are squashed. This is the bypass ablation's hardware
 * (bench/fidelity.cc) at 20 RPS instead of 13, so one simulated minute
 * reaches the squash path.
 */
TEST(GoldenTrace, ChameleonBypassSquashesUnderAdapterPressure)
{
    model::AdapterPool pool(model::llama7B(), std::vector<int>(60, 128));
    const auto report =
        runPressureScenario(pool, model::a100(24), 20.0, [](auto &spec) {
            spec.scheduler.bypass = true;
        });
    EXPECT_GT(report.stats.bypasses, 0);
    EXPECT_GT(report.stats.squashes, 0);
    expectPressureGolden("chameleon bypass squash", report.eventHash,
                         0x336a4ac2a69b7f4eull);
}

/** Non-default fabric knobs are inert while migration is off: the
 * stream stays byte-identical to the pinned pre-fabric scenario. */
TEST(GoldenTrace, FabricKnobsInertWithMigrationOff)
{
    EXPECT_EQ(runScenario("chameleon", affinityCache(), true, true, fabric::MigrationPolicy::Off,
                          fabric::TopologyKind::NvLink, 9)
                  .hash,
              0x748730f518247018ull)
        << "fabric topology/top_k leaked into a migration-off run";
}

// clang-format off
/**
 * Report pins: the SLO, attainment, fairness and per-tenant slowdown
 * doubles (reportFloatBits) of one single-tenant and two storm
 * scenarios, bit for bit. The event-stream pins above hash only the
 * record stream, so these guard the post-simulation report pass.
 * Regenerate with CHM_GOLDEN_PRINT=1.
 */
TEST(GoldenReport, JsqHomogFixed)
{
    expectReportPins(
        "jsq homog fixed",
        runScenario("chameleon", routing::RouterPolicy::JoinShortestQueue,
                    false, false)
            .floatBits,
        {0x40222ad77318fc50ull, 0x3ff0000000000000ull, 0x3ff0000000000000ull,
         0x400211056e486228ull, 0x4014042db44b8738ull, 0x3ff0000000000000ull});
}

TEST(GoldenReport, WfqStormFixed)
{
    expectReportPins("wfq storm4 fixed",
                       runTenantScenario("wfq", 4, true, false).floatBits,
                       {0x4022bb90ea9e6eebull, 0x3ff0000000000000ull, 0x3fe5fe51c4df8466ull,
                        0x401574eff65753ffull, 0x402c4dbacad39ba9ull, 0x3ff0000000000000ull,
                        0x400dae66c5d86bc0ull, 0x401f7552159e2188ull, 0x3ff0000000000000ull,
                        0x400e92f6aeee524dull, 0x401ef686af8453a1ull, 0x3ff0000000000000ull,
                        0x400de14dc79ce611ull, 0x40205cd8aa1f78ecull, 0x3ff0000000000000ull});
}

TEST(GoldenReport, DrrStormAutoscale)
{
    expectReportPins("drr storm4 autoscale",
                       runTenantScenario("drr", 4, true, true).floatBits,
                       {0x4022bb90ea9e6eebull, 0x3ff0000000000000ull, 0x3fe5fe51c4df8466ull,
                        0x3ffd3cbb32a5f3baull, 0x400f7512a06fcb2eull, 0x3ff0000000000000ull,
                        0x3ffd581a525d634eull, 0x4011884654aad704ull, 0x3ff0000000000000ull,
                        0x3ffca09eb215dacaull, 0x400e88dfeb24ac03ull, 0x3ff0000000000000ull,
                        0x3ffe8898e447c2d1ull, 0x40146a5721747addull, 0x3ff0000000000000ull});
}
// clang-format on

/**
 * Export pins: {metrics snapshot, records CSV} hashes of a one-replica
 * run, whose report holds its engine's own stats, and of a 4-replica
 * run, whose report merges four. The event-stream pins cover neither
 * the histograms and counters of the snapshot nor the CSV's decimal
 * text. Regenerate with CHM_GOLDEN_PRINT=1.
 */
TEST(GoldenReport, ExportsSingleReplica)
{
    expectReportPins("exports single replica", exportHashes(1),
                       {0xeefb9751777a0e51ull, 0x5989540fe7da1f3eull});
}

TEST(GoldenReport, ExportsJsqFourReplicas)
{
    expectReportPins("exports jsq 4 replicas", exportHashes(4),
                       {0xf6545d2843c4f297ull, 0xdb6adf41b8778da5ull});
}

// ---------------------------------------------------------------------
// RequestRecord narrowing: the token counts are stored as int32 and the
// three counters as int16, and both exports print them as the wide
// fields did.
// ---------------------------------------------------------------------

namespace {

/** A finished request with every narrowed field at `tokens` or
 * `counter`. */
serving::LiveRequest
finishedRequest(std::int64_t tokens, int counter)
{
    serving::LiveRequest r;
    r.req.id = 7;
    r.req.inputTokens = tokens;
    r.req.outputTokens = tokens;
    r.req.adapter = 3;
    r.rank = 16;
    r.arrival = 1000;
    r.admitTime = 1500;
    r.firstTokenTime = 4000;
    r.finishTime = 9000;
    r.adapterStall = 250;
    r.wrs = 0.75;
    r.queueIndex = counter;
    r.squashCount = counter;
    r.preemptCount = counter;
    return r;
}

} // namespace

TEST(RecordNarrowing, ExtremesPrintAsTheWideFieldsDid)
{
    const std::int64_t tokens = std::numeric_limits<std::int32_t>::max();
    const int counter = std::numeric_limits<std::int16_t>::max();
    const serving::LiveRequest live = finishedRequest(tokens, counter);
    core::RunReport report;
    report.stats.records = {serving::makeRecord(live, 2)};
    report.stats.finished = 1;

    // The event-stream line and the CSV row, formatted from the live
    // request's std::int64_t and int fields.
    std::ostringstream events;
    events << "finished=1 scale_ups=0 scale_downs=0 peak=0 final_active=0\n"
           << 2 << ',' << live.req.id << ',' << live.arrival << ','
           << live.req.inputTokens << ',' << live.req.outputTokens << ','
           << live.req.adapter << ',' << live.rank << ',' << 3000 << ','
           << 8000 << ',' << 500 << ',' << live.adapterStall << ','
           << bitsOf(live.wrs) << ',' << live.queueIndex << ','
           << live.squashCount << ',' << live.preemptCount << '\n';
    model::AdapterPool pool(model::llama7B(), 4);
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    core::Runner runner(spec, &pool);
    EXPECT_EQ(core::canonicalEventStream(runner.cluster(), report),
              events.str());
    EXPECT_NE(events.str().find(",2147483647,2147483647,"),
              std::string::npos);
    EXPECT_NE(events.str().find(",32767,32767,32767\n"), std::string::npos);

    std::ostringstream csv;
    serving::writeRecordsCsv(csv, report.stats.records);
    std::ostringstream expected;
    expected << "id,arrival_s,input,output,adapter,rank,ttft_s,e2e_s,"
                "queue_delay_s,adapter_stall_ms,wrs,queue,squashes,"
                "preempts\n"
             << live.req.id << ',' << sim::toSeconds(live.arrival) << ','
             << live.req.inputTokens << ',' << live.req.outputTokens << ','
             << live.req.adapter << ',' << live.rank << ','
             << sim::toSeconds(3000) << ',' << sim::toSeconds(8000) << ','
             << sim::toSeconds(500) << ','
             << sim::toMillis(live.adapterStall) << ',' << live.wrs << ','
             << live.queueIndex << ',' << live.squashCount << ','
             << live.preemptCount << '\n';
    EXPECT_EQ(csv.str(), expected.str());
}

TEST(RecordNarrowingDeathTest, OutOfRangeAbortsNamingTheField)
{
    const std::int64_t tokens = std::numeric_limits<std::int32_t>::max();
    const int counter = std::numeric_limits<std::int16_t>::max();
    auto input = finishedRequest(tokens, counter);
    input.req.inputTokens = tokens + 1;
    EXPECT_DEATH(serving::makeRecord(input, 0),
                 "RequestRecord::inputTokens cannot hold 2147483648");
    auto output = finishedRequest(tokens, counter);
    output.req.outputTokens = -tokens - 2;
    EXPECT_DEATH(serving::makeRecord(output, 0),
                 "RequestRecord::outputTokens cannot hold -2147483649");
    auto queue = finishedRequest(tokens, counter);
    queue.queueIndex = counter + 1;
    EXPECT_DEATH(serving::makeRecord(queue, 0),
                 "RequestRecord::queueIndex cannot hold 32768");
    auto squashes = finishedRequest(tokens, counter);
    squashes.squashCount = 65536;
    EXPECT_DEATH(serving::makeRecord(squashes, 0),
                 "RequestRecord::squashCount cannot hold 65536");
    auto preempts = finishedRequest(tokens, counter);
    preempts.preemptCount = -counter - 2;
    EXPECT_DEATH(serving::makeRecord(preempts, 0),
                 "RequestRecord::preemptCount cannot hold -32769");
}
