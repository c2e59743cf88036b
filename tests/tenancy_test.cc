/**
 * @file
 * Tenancy subsystem tests: Jain's index invariants, WFQ/DRR scheduler
 * behaviour (including the FIFO-equivalence and non-negative-deficit
 * properties from the fairness literature), tenant-aware trace
 * generation, spec JSON wiring, and end-to-end per-tenant accounting.
 */

#include <algorithm>
#include <cstring>
#include <sstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/spec_json.h"
#include "chameleon/system.h"
#include "chameleon/system_registry.h"
#include "serving/slo.h"
#include "simkit/rng.h"
#include "tenancy/drr_scheduler.h"
#include "tenancy/tenant_table.h"
#include "tenancy/wfq_scheduler.h"
#include "test_util.h"
#include "workload/trace_gen.h"

using namespace chameleon;
using testutil::FakeAdmission;
using testutil::liveRequest;

namespace {

serving::LiveRequest
tenantRequest(std::int64_t id, workload::TenantId tenant,
              std::int64_t input, std::int64_t predicted)
{
    auto r = liveRequest(id, input, predicted);
    r.req.tenant = tenant;
    return r;
}

std::string
joinErrors(const std::vector<std::string> &errors)
{
    std::string all;
    for (const auto &e : errors) {
        all += e;
        all += '\n';
    }
    return all;
}

} // namespace

// ---------------------------------------------------------------------
// Jain's index invariants.
// ---------------------------------------------------------------------

TEST(JainIndex, EmptyAndAllZeroAreOne)
{
    EXPECT_DOUBLE_EQ(tenancy::jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(tenancy::jainIndex({0.0, 0.0, 0.0}), 1.0);
}

TEST(JainIndex, IdenticalSharesAreExactlyOne)
{
    EXPECT_DOUBLE_EQ(tenancy::jainIndex({3.5, 3.5, 3.5, 3.5}), 1.0);
    EXPECT_DOUBLE_EQ(tenancy::jainIndex({1e-9, 1e-9}), 1.0);
}

TEST(JainIndex, AlwaysInUnitInterval)
{
    sim::Rng rng(0xFA17);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> xs(1 + rng.nextBelow(8));
        for (auto &x : xs)
            x = rng.nextDouble() * 100.0;
        const double j = tenancy::jainIndex(xs);
        EXPECT_GT(j, 0.0) << trial;
        EXPECT_LE(j, 1.0 + 1e-12) << trial;
    }
}

TEST(JainIndex, SingleDominantTenantApproachesOneOverN)
{
    const double j = tenancy::jainIndex({1000.0, 0.0, 0.0, 0.0});
    EXPECT_NEAR(j, 0.25, 1e-12);
}

// ---------------------------------------------------------------------
// Per-tenant lookup.
// ---------------------------------------------------------------------

TEST(TenantLookup, DefaultsAndOutOfRangeLookups)
{
    const std::vector<double> weights = {0.5, 3.0};
    EXPECT_DOUBLE_EQ(tenancy::entryOrOne(weights, 0), 0.5);
    EXPECT_DOUBLE_EQ(tenancy::entryOrOne(weights, 1), 3.0);
    EXPECT_DOUBLE_EQ(tenancy::entryOrOne(weights, 7), 1.0); // unknown
    EXPECT_DOUBLE_EQ(tenancy::entryOrOne(weights, -1), 1.0);
    EXPECT_DOUBLE_EQ(tenancy::entryOrOne({}, 0), 1.0); // unconfigured
    // The spec's lookups are the same one.
    core::TenancySpec spec;
    spec.weights = weights;
    spec.sloMultipliers = {2.0};
    for (int tenant = -2; tenant < 4; ++tenant) {
        EXPECT_EQ(spec.weightFor(tenant),
                  tenancy::entryOrOne(weights, tenant));
        EXPECT_EQ(spec.sloMultiplierFor(tenant),
                  tenancy::entryOrOne({2.0}, tenant));
    }
}

// ---------------------------------------------------------------------
// WFQ scheduler.
// ---------------------------------------------------------------------

TEST(WfqScheduler, SingleTenantAdmitsInArrivalOrder)
{
    tenancy::WfqScheduler sched;
    auto a = tenantRequest(1, 0, 10, 10);
    auto b = tenantRequest(2, 0, 10, 10);
    auto c = tenantRequest(3, 0, 10, 10);
    sched.enqueue(&a);
    sched.enqueue(&b);
    sched.enqueue(&c);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0], &a);
    EXPECT_EQ(admitted[1], &b);
    EXPECT_EQ(admitted[2], &c);
}

TEST(WfqScheduler, InterleavesTenantsByVirtualStartTime)
{
    // Equal weights, equal sizes: heads tie on start tag 0 and break by
    // tenant id; the second requests interleave by finish tag.
    tenancy::WfqScheduler sched;
    auto a1 = tenantRequest(1, 0, 100, 0);
    auto a2 = tenantRequest(2, 0, 100, 0);
    auto b1 = tenantRequest(3, 1, 100, 0);
    auto b2 = tenantRequest(4, 1, 100, 0);
    sched.enqueue(&a1);
    sched.enqueue(&a2);
    sched.enqueue(&b1);
    sched.enqueue(&b2);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 4u);
    EXPECT_EQ(admitted[0], &a1);
    EXPECT_EQ(admitted[1], &b1);
    EXPECT_EQ(admitted[2], &a2);
    EXPECT_EQ(admitted[3], &b2);
}

TEST(WfqScheduler, HigherWeightFinishesEarlierTags)
{
    // Tenant 1 has weight 4: its backlog drains 4 requests for every 1
    // of tenant 0 once the tags spread out.
    tenancy::WfqScheduler sched({1.0, 4.0});
    std::vector<serving::LiveRequest> reqs;
    reqs.reserve(10);
    for (int i = 0; i < 5; ++i)
        reqs.push_back(tenantRequest(i, 0, 100, 0));
    for (int i = 0; i < 5; ++i)
        reqs.push_back(tenantRequest(10 + i, 1, 100, 0));
    for (auto &r : reqs)
        sched.enqueue(&r);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 10u);
    // Among the first five admissions, tenant 1 holds the majority.
    int heavy = 0;
    for (int i = 0; i < 5; ++i)
        heavy += admitted[static_cast<std::size_t>(i)]->req.tenant == 1;
    EXPECT_GE(heavy, 3);
}

TEST(WfqScheduler, BlockedHeadStopsSelection)
{
    tenancy::WfqScheduler sched;
    auto a = tenantRequest(1, 0, 10, 10);
    auto b = tenantRequest(2, 1, 10, 10);
    sched.enqueue(&a);
    sched.enqueue(&b);
    FakeAdmission fake;
    fake.refuse = &a; // the minimum-tag head cannot reserve
    const auto admitted = sched.selectAdmissions(fake.ctx);
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(sched.waitingCount(), 2u);
}

TEST(WfqScheduler, RequeueFrontKeepsOriginalTag)
{
    tenancy::WfqScheduler sched;
    auto a = tenantRequest(1, 0, 10, 10);
    auto b = tenantRequest(2, 0, 10, 10);
    sched.enqueue(&a);
    sched.enqueue(&b);
    FakeAdmission fake;
    auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 2u);
    sched.requeueFront(&a); // squashed back with its original tag
    admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0], &a);
}

// ---------------------------------------------------------------------
// DRR scheduler.
// ---------------------------------------------------------------------

TEST(DrrScheduler, DeficitsNeverGoNegative)
{
    tenancy::DrrScheduler sched({1.0, 2.5, 0.25}, /*quantumTokens=*/64);
    sim::Rng rng(0xD00F);
    std::vector<serving::LiveRequest> reqs;
    reqs.reserve(60);
    for (int i = 0; i < 60; ++i) {
        reqs.push_back(tenantRequest(
            i, static_cast<workload::TenantId>(rng.nextBelow(3)),
            1 + static_cast<std::int64_t>(rng.nextBelow(400)), 10));
    }
    std::size_t next = 0;
    for (int round = 0; round < 30; ++round) {
        for (int k = 0; k < 2 && next < reqs.size(); ++k)
            sched.enqueue(&reqs[next++]);
        FakeAdmission fake;
        fake.ctx.admissionSlots = 1 + static_cast<int>(rng.nextBelow(3));
        sched.selectAdmissions(fake.ctx);
        for (const auto &[tenant, deficit] : sched.deficits()) {
            EXPECT_GE(deficit, 0)
                << "tenant " << tenant << " round " << round;
        }
    }
}

TEST(DrrScheduler, DrainedQueueForfeitsDeficit)
{
    tenancy::DrrScheduler sched({}, /*quantumTokens=*/1024);
    auto a = tenantRequest(1, 0, 10, 10);
    sched.enqueue(&a);
    FakeAdmission fake;
    ASSERT_EQ(sched.selectAdmissions(fake.ctx).size(), 1u);
    // The drained queue banks nothing for its next busy period.
    for (const auto &[tenant, deficit] : sched.deficits())
        EXPECT_EQ(deficit, 0) << "tenant " << tenant;
}

TEST(DrrScheduler, WeightScalesPerRoundService)
{
    // Equal backlogs of equal-sized requests; weight 3 vs 1 yields a
    // ~3:1 admission split once slots limit each round.
    tenancy::DrrScheduler sched({3.0, 1.0}, /*quantumTokens=*/100);
    std::vector<serving::LiveRequest> reqs;
    reqs.reserve(40);
    for (int i = 0; i < 20; ++i)
        reqs.push_back(tenantRequest(i, 0, 100, 0));
    for (int i = 0; i < 20; ++i)
        reqs.push_back(tenantRequest(100 + i, 1, 100, 0));
    for (auto &r : reqs)
        sched.enqueue(&r);
    std::map<workload::TenantId, int> admittedBy;
    for (int round = 0; round < 4; ++round) {
        FakeAdmission fake;
        fake.ctx.admissionSlots = 4;
        for (const auto *r : sched.selectAdmissions(fake.ctx))
            ++admittedBy[r->req.tenant];
    }
    EXPECT_GT(admittedBy[0], 2 * admittedBy[1]);
}

// ---------------------------------------------------------------------
// WFQ with a single anonymous tenant is FIFO, bit for bit.
// ---------------------------------------------------------------------

TEST(WfqScheduler, SingleTenantRunMatchesFifoBitForBit)
{
    model::AdapterPool pool(model::llama7B(), 20);
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 12.0;
    wl.durationSeconds = 20.0;
    wl.numAdapters = 20;
    wl.seed = 7;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    const auto &registry = core::SystemRegistry::global();
    auto run = [&](const std::string &system) {
        auto spec = registry.lookup(system);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        core::Runner runner(spec, &pool);
        return runner.run(trace);
    };
    const auto fifo = run("slora");       // slora schedules FIFO
    const auto wfq = run("slora+wfq");

    ASSERT_EQ(fifo.stats.records.size(), wfq.stats.records.size());
    EXPECT_EQ(fifo.stats.iterations, wfq.stats.iterations);
    for (std::size_t i = 0; i < fifo.stats.records.size(); ++i) {
        const auto &a = fifo.stats.records[i];
        const auto &b = wfq.stats.records[i];
        ASSERT_EQ(a.id, b.id) << i;
        EXPECT_EQ(a.ttft, b.ttft) << i;
        EXPECT_EQ(a.e2e, b.e2e) << i;
        EXPECT_EQ(a.queueDelay, b.queueDelay) << i;
        EXPECT_EQ(a.adapterStall, b.adapterStall) << i;
    }
}

// ---------------------------------------------------------------------
// Tenant-aware trace generation.
// ---------------------------------------------------------------------

TEST(TenantTraceGen, SingleTenantPathLeavesTenantsAnonymous)
{
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 10.0;
    wl.seed = 3;
    wl.numAdapters = 0;
    workload::TraceGenerator gen(wl, nullptr);
    const workload::Trace trace = gen.generate();
    for (const auto &r : trace.requests())
        EXPECT_EQ(r.tenant, workload::kAnonymousTenant);
}

TEST(TenantTraceGen, MultiTenantIsDeterministicSortedAndComplete)
{
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 20.0;
    wl.durationSeconds = 30.0;
    wl.seed = 11;
    wl.numAdapters = 0;
    wl.numTenants = 3;
    workload::TraceGenerator gen(wl, nullptr);
    const auto a = gen.generate();
    const auto b = workload::TraceGenerator(wl, nullptr).generate();
    ASSERT_EQ(a.size(), b.size());
    std::map<workload::TenantId, int> counts;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &ra = a.requests()[i];
        const auto &rb = b.requests()[i];
        EXPECT_EQ(ra.arrival, rb.arrival) << i;
        EXPECT_EQ(ra.tenant, rb.tenant) << i;
        EXPECT_EQ(ra.id, static_cast<workload::RequestId>(i)) << i;
        if (i > 0) {
            EXPECT_GE(ra.arrival, a.requests()[i - 1].arrival) << i;
        }
        ASSERT_GE(ra.tenant, 0);
        ASSERT_LT(ra.tenant, 3);
        ++counts[ra.tenant];
    }
    // Equal shares: each tenant lands near a third of the arrivals.
    for (const auto &[tenant, n] : counts) {
        EXPECT_GT(n, static_cast<int>(a.size()) / 5) << tenant;
        EXPECT_LT(n, static_cast<int>(a.size()) / 2) << tenant;
    }
}

TEST(TenantTraceGen, StormMultipliesTheStormTenantInWindow)
{
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 12.0;
    wl.durationSeconds = 60.0;
    wl.seed = 5;
    wl.numAdapters = 0;
    wl.numTenants = 2;
    wl.stormMultiplier = 6.0;
    workload::TraceGenerator gen(wl, nullptr);
    int stormInWindow = 0;
    int calmInWindow = 0;
    int stormOutside = 0;
    int calmOutside = 0;
    const workload::Trace trace = gen.generate();
    for (const auto &r : trace.requests()) {
        const double t = sim::toSeconds(r.arrival);
        const bool inWindow = t >= 15.0 && t < 45.0;
        if (r.tenant == 0)
            ++(inWindow ? stormInWindow : stormOutside);
        else
            ++(inWindow ? calmInWindow : calmOutside);
    }
    // 6x the share over [15, 45) s: several times the calm tenant's
    // arrivals there.
    EXPECT_GT(stormInWindow, 3 * calmInWindow);
    // Outside the window the two run at equal shares: no surplus
    // beyond Poisson noise (a 2x surplus would be ~10 sigma).
    EXPECT_LT(stormOutside, calmOutside * 3 / 2);
}

TEST(TenantTraceGen, CsvRoundTripsTenantsAndReadsLegacyRows)
{
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 10.0;
    wl.seed = 9;
    wl.numAdapters = 0;
    wl.numTenants = 2;
    workload::TraceGenerator gen(wl, nullptr);
    const auto trace = gen.generate();
    std::stringstream csv;
    trace.saveCsv(csv);
    std::string error;
    const auto loaded = workload::Trace::loadCsv(csv, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ASSERT_EQ(loaded->size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded->requests()[i].tenant, trace.requests()[i].tenant)
            << i;
    }

    // Legacy 5-column rows (pre-tenancy traces) default to tenant 0.
    std::istringstream legacy(
        "id,arrival_us,input_tokens,output_tokens,adapter\n"
        "0,1000,128,32,2\n");
    const auto old = workload::Trace::loadCsv(legacy, &error);
    ASSERT_TRUE(old.has_value()) << error;
    ASSERT_EQ(old->size(), 1u);
    EXPECT_EQ(old->requests()[0].tenant, workload::kAnonymousTenant);
}

// ---------------------------------------------------------------------
// Spec JSON and registry wiring.
// ---------------------------------------------------------------------

TEST(TenancySpec, RoundTripsThroughJson)
{
    auto spec = core::SystemRegistry::global().lookup("chameleon+wfq");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.tenancy.tenants = 4;
    spec.tenancy.weights = {2.0, 1.0, 1.0, 0.5};
    spec.tenancy.sloMultipliers = {1.0, 1.0, 2.0, 2.0};
    ASSERT_TRUE(spec.validate().empty()) << joinErrors(spec.validate());
    std::string error;
    const auto back = core::specFromJson(core::specToJson(spec), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(*back, spec);
    // And the dump itself is stable (bit-identical round trip).
    EXPECT_EQ(core::specToJson(*back), core::specToJson(spec));
}

TEST(TenancySpec, ValidateRejectsBadShapes)
{
    auto spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();

    auto broken = spec;
    broken.tenancy.tenants = 0;
    EXPECT_NE(joinErrors(broken.validate()).find("tenancy.tenants"),
              std::string::npos);

    broken = spec;
    broken.tenancy.tenants = 2;
    broken.tenancy.weights = {1.0, 2.0, 3.0}; // size mismatch
    EXPECT_NE(joinErrors(broken.validate()).find("tenancy.weights"),
              std::string::npos);

    broken = spec;
    broken.tenancy.tenants = 2;
    broken.tenancy.weights = {1.0, 0.0}; // non-positive weight
    EXPECT_NE(joinErrors(broken.validate()).find("tenancy.weights[1]"),
              std::string::npos);
}

TEST(TenancySpec, UnknownSchedulerNamesFailWithOptionsListed)
{
    // Spec JSON path: the error names the key and the valid values.
    std::string error;
    const auto parsed = core::specFromJson(
        R"({"scheduler": {"policy": "bogus"}})", &error);
    EXPECT_FALSE(parsed.has_value());
    EXPECT_NE(error.find("scheduler.policy"), std::string::npos) << error;
    for (const char *option : {"fifo", "sjf", "mlq", "wfq", "drr"})
        EXPECT_NE(error.find(option), std::string::npos) << error;

    // Registry grammar path: an unknown modifier lists the grammar.
    std::string lookupError;
    const auto found = core::SystemRegistry::global().find(
        "chameleon+bogus", &lookupError);
    EXPECT_FALSE(found.has_value());
    EXPECT_NE(lookupError.find("bogus"), std::string::npos) << lookupError;
    EXPECT_NE(lookupError.find("wfq"), std::string::npos) << lookupError;
    EXPECT_NE(lookupError.find("drr"), std::string::npos) << lookupError;
}

// ---------------------------------------------------------------------
// End-to-end per-tenant accounting.
// ---------------------------------------------------------------------

TEST(TenancyRunner, ReportsPerTenantMetricsAndFairness)
{
    model::AdapterPool pool(model::llama7B(), 20);
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 10.0;
    wl.durationSeconds = 20.0;
    wl.numAdapters = 20;
    wl.seed = 21;
    wl.numTenants = 2;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    auto spec = core::SystemRegistry::global().lookup("chameleon+wfq");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.tenancy.tenants = 2;
    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);

    ASSERT_EQ(report.tenants.size(), 2u);
    std::int64_t finished = 0;
    for (const auto &t : report.tenants) {
        EXPECT_GT(t.finished, 0) << t.tenant;
        EXPECT_GT(t.p50TtftSeconds, 0.0) << t.tenant;
        EXPECT_GE(t.p99E2eSeconds, t.p50E2eSeconds) << t.tenant;
        EXPECT_GE(t.meanSlowdown, 1.0) << t.tenant;
        EXPECT_GE(t.sloAttainment, 0.0) << t.tenant;
        EXPECT_LE(t.sloAttainment, 1.0) << t.tenant;
        finished += t.finished;
    }
    EXPECT_EQ(finished, report.stats.finished);
    EXPECT_GT(report.fairnessIndex, 0.0);
    EXPECT_LE(report.fairnessIndex, 1.0);
    EXPECT_GT(report.sloSeconds, 0.0);
    EXPECT_GE(report.sloAttainment, 0.0);

    // The metrics snapshot carries the tenant groups and the index.
    const std::string snapshot = report.metrics.dump();
    EXPECT_NE(snapshot.find("jain_index"), std::string::npos);
    EXPECT_NE(snapshot.find("tenant"), std::string::npos);
}

TEST(TenancyRunner, SloMultiplierZeroDisablesAttainment)
{
    model::AdapterPool pool(model::llama7B(), 10);
    workload::TraceGenConfig wl = workload::splitwiseLike();
    wl.rps = 8.0;
    wl.durationSeconds = 10.0;
    wl.numAdapters = 10;
    wl.seed = 2;
    workload::TraceGenerator gen(wl, &pool);
    const auto trace = gen.generate();

    auto spec = core::SystemRegistry::global().lookup("slora");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    // The multiplier is the paper's, a constant.
    core::Runner runner(spec, &pool);
    const auto report = runner.run(trace);
    EXPECT_EQ(report.sloMultiplier, serving::kSloMultiplier);
    EXPECT_GT(report.sloSeconds, 0.0);
    EXPECT_GE(report.sloAttainment, 0.0);

    // An empty trace has no SLO: attainment reads the -1 sentinel.
    core::Runner idle(spec, &pool);
    const auto empty = idle.run(workload::Trace{});
    EXPECT_EQ(empty.sloMultiplier, 0.0);
    EXPECT_EQ(empty.sloSeconds, 0.0);
    EXPECT_LT(empty.sloAttainment, 0.0);
    for (const auto &t : empty.tenants)
        EXPECT_LT(t.sloAttainment, 0.0);
}

namespace {

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** `trace` with tenant t renamed ids[t], read back from its CSV. */
workload::Trace
renamedThroughCsv(const workload::Trace &trace,
                  const std::vector<workload::TenantId> &ids)
{
    std::vector<workload::Request> requests = trace.requests();
    for (auto &r : requests)
        r.tenant = ids.at(static_cast<std::size_t>(r.tenant));
    std::stringstream csv;
    workload::Trace(std::move(requests)).saveCsv(csv);
    std::string error;
    auto loaded = workload::Trace::loadCsv(csv, &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return loaded ? std::move(*loaded) : workload::Trace();
}

/**
 * Every per-tenant figure of `report`, its fairness index and its SLO
 * attainment, bit for bit against a plain reference: each tenant's
 * records copied into a std::map in record order, and trackers filled
 * from them.
 */
void
expectTenantReportsMatchReference(const core::RunReport &report,
                                  const core::SystemSpec &spec,
                                  const model::AdapterPool &pool)
{
    std::map<workload::TenantId, std::vector<serving::RequestRecord>>
        byTenant;
    for (const auto &rec : report.stats.records)
        byTenant[rec.tenant].push_back(rec);
    const model::CostModel cost(spec.engine.model, spec.engine.gpu,
                                spec.engine.tpDegree, spec.engine.cost);
    ASSERT_GT(report.sloSeconds, 0.0);
    ASSERT_EQ(report.tenants.size(), byTenant.size());
    std::vector<double> weightedService;
    std::int64_t metOverall = 0;
    auto tr = report.tenants.begin();
    for (const auto &[tenant, records] : byTenant) {
        SCOPED_TRACE(testing::Message() << "tenant " << tenant);
        sim::PercentileTracker ttft;
        sim::PercentileTracker e2e;
        for (const auto &rec : records) {
            ttft.add(sim::toSeconds(rec.ttft));
            e2e.add(sim::toSeconds(rec.e2e));
        }
        const auto slowdown = serving::slowdowns(records, cost, &pool);
        const auto finished = static_cast<std::int64_t>(records.size());
        const double slo =
            report.sloSeconds * spec.tenancy.sloMultiplierFor(tenant);
        const auto met = static_cast<std::int64_t>(
            std::count_if(records.begin(), records.end(),
                          [slo](const serving::RequestRecord &rec) {
                              return sim::toSeconds(rec.ttft) <= slo;
                          }));
        EXPECT_EQ(tr->tenant, tenant);
        EXPECT_EQ(tr->finished, finished);
        EXPECT_EQ(bitsOf(tr->p50TtftSeconds), bitsOf(ttft.p50()));
        EXPECT_EQ(bitsOf(tr->p99TtftSeconds), bitsOf(ttft.p99()));
        EXPECT_EQ(bitsOf(tr->p50E2eSeconds), bitsOf(e2e.p50()));
        EXPECT_EQ(bitsOf(tr->p99E2eSeconds), bitsOf(e2e.p99()));
        EXPECT_EQ(bitsOf(tr->meanSlowdown), bitsOf(slowdown.mean()));
        EXPECT_EQ(bitsOf(tr->p99Slowdown), bitsOf(slowdown.p99()));
        EXPECT_EQ(bitsOf(tr->sloSeconds), bitsOf(slo));
        EXPECT_EQ(bitsOf(tr->sloAttainment),
                  bitsOf(static_cast<double>(met) /
                         static_cast<double>(finished)));
        metOverall += met;
        weightedService.push_back(static_cast<double>(finished) /
                                  spec.tenancy.weightFor(tenant));
        ++tr;
    }
    EXPECT_EQ(bitsOf(report.fairnessIndex),
              bitsOf(tenancy::jainIndex(weightedService)));
    EXPECT_EQ(bitsOf(report.sloAttainment),
              bitsOf(static_cast<double>(metOverall) /
                     static_cast<double>(report.stats.finished)));
}

} // namespace

TEST(TenantReports, MatchAPlainPerTenantReferenceBitForBit)
{
    model::AdapterPool pool(model::llama7B(), 20);
    sim::Rng rng(33);
    const char *systems[] = {"chameleon+wfq", "chameleon+drr", "chameleon",
                             "slora"};
    constexpr int kStormRun = 4;
    constexpr int kBoundedRun = 5;
    for (int run = 0; run < 6; ++run) {
        SCOPED_TRACE(testing::Message() << "run " << run);
        // 3-7 tenants with distinct ids: about half from 0-6, which
        // the weight and SLO tables below cover, the rest sparse and
        // often negative, which they do not.
        const int tenants = 3 + static_cast<int>(rng.nextBelow(5));
        std::vector<workload::TenantId> ids;
        while (static_cast<int>(ids.size()) < tenants) {
            const auto id = static_cast<workload::TenantId>(
                rng.nextBelow(2) == 0
                    ? static_cast<std::int64_t>(rng.nextBelow(7))
                    : static_cast<std::int64_t>(rng.nextBelow(200000)) -
                          100000);
            if (std::find(ids.begin(), ids.end(), id) == ids.end())
                ids.push_back(id);
        }
        workload::TraceGenConfig wl = workload::splitwiseLike();
        wl.rps = run == kBoundedRun ? 30.0 : 10.0;
        wl.durationSeconds = 20.0;
        wl.numAdapters = 20;
        wl.seed = 100 + static_cast<std::uint64_t>(run);
        wl.numTenants = tenants;
        if (run == kStormRun)
            wl.stormMultiplier = 6.0;
        const workload::Trace trace = renamedThroughCsv(
            workload::TraceGenerator(wl, &pool).generate(), ids);

        auto spec = core::SystemRegistry::global().lookup(
            systems[run % std::size(systems)]);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        spec.tenancy.tenants = 7;
        spec.tenancy.weights = {2.0, 1.0, 0.5, 1.0, 3.0, 1.0, 0.25};
        spec.tenancy.sloMultipliers = {1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0};
        core::Runner runner(spec, &pool);
        // The bounded run stops at the end of the trace, with requests
        // still unfinished.
        const auto report =
            runner.run(trace, run == kBoundedRun ? 0 : 3600 * sim::kSec);
        if (run == kBoundedRun) {
            EXPECT_LT(report.stats.finished,
                      static_cast<std::int64_t>(trace.size()));
        } else {
            EXPECT_EQ(report.stats.finished,
                      static_cast<std::int64_t>(trace.size()));
        }
        EXPECT_EQ(report.tenants.size(),
                  static_cast<std::size_t>(tenants));
        expectTenantReportsMatchReference(report, spec, pool);
    }
}
