/**
 * @file
 * Cache-fabric test layer: the residency directory churned against a
 * brute-force reference model, peer-to-peer migration behaviour, the
 * preset registries' rejection paths, and sweep thread-stress with
 * migration enabled.
 *
 * The tentpole invariant: the ResidencyDirectory — fed only by the
 * adapter managers' residency callbacks — never disagrees with the
 * per-replica contents it mirrors, under arbitrary interleavings of
 * acquire/release/shrink/peer-admit/evict churn, for the Chameleon
 * cache and the S-LoRA baseline alike.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chameleon/cache_manager.h"
#include "chameleon/spec_json.h"
#include "fabric/cache_fabric.h"
#include "model/cost_model.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/simulator.h"
#include "sweep/sweep_runner.h"

using namespace chameleon;

namespace {

/** The adapter manager every replica of a ClusterFixture runs. */
enum class ManagerKind { ChameleonCache, SLora, SLoraNoPrefetch };

/** A small cluster of real adapter managers over one simulator, wired
 * into one directory exactly as DataParallelCluster wires them. */
struct ClusterFixture
{
    static constexpr int kReplicas = 3;
    static constexpr int kAdapters = 12;

    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), kAdapters};
    model::CostModel cost{model::llama7B(), model::a40()};
    fabric::ResidencyDirectory directory;
    std::vector<std::unique_ptr<gpu::GpuMemory>> mems;
    std::vector<std::unique_ptr<gpu::PcieLink>> links;
    std::vector<std::unique_ptr<serving::AdapterManager>> mgrs;
    /** The reference model: running references taken and not yet
     * released, per (replica, adapter). */
    int refs[kReplicas][kAdapters] = {};

    explicit ClusterFixture(std::int64_t capacity = 120ll << 20,
                            ManagerKind kind = ManagerKind::ChameleonCache)
    {
        for (int r = 0; r < kReplicas; ++r) {
            mems.push_back(
                std::make_unique<gpu::GpuMemory>(capacity, 0, 0));
            links.push_back(std::make_unique<gpu::PcieLink>(
                simulator, [this](std::int64_t bytes) {
                    return cost.adapterLoadTime(bytes);
                }));
            if (kind == ManagerKind::ChameleonCache) {
                mgrs.push_back(std::make_unique<core::CacheManager>(
                    pool, *mems[r], *links[r], cost));
            } else {
                mgrs.push_back(
                    std::make_unique<serving::SLoraAdapterManager>(
                        pool, *mems[r], *links[r],
                        kind == ManagerKind::SLora));
            }
            mgrs[r]->setResidencyListener(&directory, r);
        }
    }

    /** Acquire on `r`, counting the reference only when granted. */
    bool
    acquire(int r, model::AdapterId a)
    {
        if (mgrs[r]->acquire(a, simulator.now()) == sim::kTimeNever)
            return false;
        ++refs[r][a];
        return true;
    }

    /** Release one counted reference, if `r` holds any on `a`. */
    void
    release(int r, model::AdapterId a)
    {
        if (refs[r][a] > 0) {
            mgrs[r]->release(a);
            --refs[r][a];
        }
    }

    /**
     * Drain to quiescence so Loading entries settle, then compare the
     * directory against the ground truth: every manager's residency,
     * the reference refcounts, and the per-replica and total entry
     * counts. No refcount may ever go negative.
     */
    ::testing::AssertionResult
    coherent()
    {
        simulator.run();
        std::size_t totalHeld = 0;
        for (int replica = 0; replica < kReplicas; ++replica) {
            const auto index = static_cast<std::size_t>(replica);
            std::size_t held = 0;
            for (model::AdapterId id = 0; id < kAdapters; ++id) {
                if (directory.isResident(id, index) !=
                    mgrs[replica]->isResident(id)) {
                    return ::testing::AssertionFailure()
                           << "directory disagrees with replica "
                           << replica << " about adapter " << id;
                }
                const auto *h = directory.holding(id, index);
                const int refcount = h == nullptr ? 0 : h->refcount;
                if (refcount < 0 || refcount != refs[replica][id]) {
                    return ::testing::AssertionFailure()
                           << "refcount " << refcount << " of adapter "
                           << id << " on replica " << replica
                           << ", expected " << refs[replica][id];
                }
                held += h != nullptr;
            }
            if (directory.replicaEntryCount(index) != held) {
                return ::testing::AssertionFailure()
                       << "replica " << replica << " entry count "
                       << directory.replicaEntryCount(index)
                       << ", expected " << held;
            }
            totalHeld += held;
        }
        if (directory.totalEntries() != totalHeld) {
            return ::testing::AssertionFailure()
                   << "total entries " << directory.totalEntries()
                   << ", expected " << totalHeld;
        }
        return ::testing::AssertionSuccess();
    }
};

} // namespace

/**
 * Randomised churn: acquire/release/KV-shrink/peer-admit across three
 * replicas, checking after every quiescent point that the directory
 * agrees with each cache manager (the brute-force reference model) on
 * residency, holdings, and entry counts — and that no refcount ever
 * goes negative.
 */
TEST(FabricDirectory, ChurnNeverDisagreesWithCaches)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        // Tight capacity: ~7 rank-8 adapters fit, so demand loads and
        // KV shrinks evict constantly.
        ClusterFixture f;
        std::mt19937_64 rng(seed);

        for (int step = 0; step < 400; ++step) {
            const int r = static_cast<int>(
                rng() % ClusterFixture::kReplicas);
            const int a = static_cast<int>(
                rng() % ClusterFixture::kAdapters);
            const auto now = f.simulator.now();
            switch (rng() % 5) {
              case 0:
              case 1:
                // A declined acquire (memory pressure, nothing
                // evictable) takes no reference.
                f.acquire(r, a);
                break;
              case 2:
                f.release(r, a);
                break;
              case 3:
                f.mgrs[r]->tryFreeMemory(
                    static_cast<std::int64_t>(rng() % (30ll << 20)));
                break;
              default:
                // Peer-admit as the fabric would: weights arrive over
                // a peer link a little later.
                f.mgrs[r]->peerAdmit(a, now + 500, now);
                break;
            }
            ASSERT_TRUE(f.coherent()) << "seed " << seed << " step " << step;
        }
    }
}

/**
 * Every eviction has a cause, peer admits' included: over the same
 * churn on tight caches, peer admits evict, and each manager's
 * evictions by cause (the counters the metrics snapshot exports as
 * replica<i>.cache.evictions_by_cause.*) sum to its evictions.
 */
TEST(FabricDirectory, PeerAdmitEvictionsHaveACause)
{
    std::int64_t peerAdmitEvictions = 0;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        ClusterFixture f;
        std::mt19937_64 rng(seed);
        for (int step = 0; step < 400; ++step) {
            const int r = static_cast<int>(
                rng() % ClusterFixture::kReplicas);
            const int a = static_cast<int>(
                rng() % ClusterFixture::kAdapters);
            const auto now = f.simulator.now();
            switch (rng() % 4) {
              case 0:
                f.acquire(r, a);
                break;
              case 1:
                f.release(r, a);
                break;
              case 2:
                f.mgrs[r]->tryFreeMemory(
                    static_cast<std::int64_t>(rng() % (30ll << 20)));
                break;
              default:
                f.mgrs[r]->peerAdmit(a, now + 500, now);
                break;
            }
            f.simulator.run();
        }
        for (const auto &mgr : f.mgrs) {
            const auto &cache = static_cast<const core::CacheManager &>(*mgr);
            EXPECT_EQ(cache.demandEvictions() + cache.prefetchEvictions() +
                          cache.kvShrinkEvictions() +
                          cache.peerAdmitEvictions(),
                      cache.evictions())
                << "seed " << seed;
            peerAdmitEvictions += cache.peerAdmitEvictions();
        }
    }
    EXPECT_GT(peerAdmitEvictions, 0)
        << "no peer admit evicted; the test is vacuous";
}

/**
 * The same churn against the S-LoRA baseline, with queued prefetch on
 * and off: discard-on-idle after the last release or dequeue, the
 * reclaim of prefetched adapters in tryFreeMemory, and declined
 * acquires (which must report nothing) all keep the directory exact.
 */
TEST(FabricDirectory, SLoraChurnNeverDisagreesWithManagers)
{
    for (const auto kind :
         {ManagerKind::SLora, ManagerKind::SLoraNoPrefetch}) {
        int discards = 0;
        int reclaims = 0;
        int declined = 0;
        for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            ClusterFixture f(120ll << 20, kind);
            std::mt19937_64 rng(seed);
            // Queued requests per (replica, adapter), for dequeues.
            int queued[ClusterFixture::kReplicas]
                      [ClusterFixture::kAdapters] = {};

            for (int step = 0; step < 400; ++step) {
                const int r = static_cast<int>(
                    rng() % ClusterFixture::kReplicas);
                const int a = static_cast<int>(
                    rng() % ClusterFixture::kAdapters);
                const auto now = f.simulator.now();
                const std::size_t entriesBefore =
                    f.directory.totalEntries();
                switch (rng() % 6) {
                  case 0:
                  case 1:
                    if (!f.acquire(r, a)) {
                        ++declined;
                        ASSERT_EQ(f.directory.totalEntries(),
                                  entriesBefore)
                            << "a declined acquire reported residency";
                    }
                    break;
                  case 2:
                    f.release(r, a);
                    discards += f.directory.totalEntries() <
                                entriesBefore;
                    break;
                  case 3:
                    f.mgrs[r]->onRequestQueued(a, now);
                    ++queued[r][a];
                    break;
                  case 4:
                    if (queued[r][a] > 0) {
                        f.mgrs[r]->onRequestDequeued(a);
                        --queued[r][a];
                    }
                    break;
                  default:
                    f.mgrs[r]->tryFreeMemory(
                        static_cast<std::int64_t>(rng() % (60ll << 20)));
                    reclaims += f.directory.totalEntries() < entriesBefore;
                    break;
                }
                ASSERT_TRUE(f.coherent())
                    << "seed " << seed << " step " << step
                    << (kind == ManagerKind::SLora ? ", prefetch on"
                                                   : ", prefetch off");
            }
        }
        // Every path the test is about actually ran.
        EXPECT_GT(discards, 0);
        EXPECT_GT(reclaims, 0);
        EXPECT_GT(declined, 0);
    }
}

/** residentReplicas returns ascending engine indices, Resident only. */
TEST(FabricDirectory, ResidentReplicasAscendingAndTierAware)
{
    fabric::ResidencyDirectory dir;
    for (int replica : {2, 0, 1}) {
        dir.onLoadStart(replica, 7);
        dir.onLoadComplete(replica, 7);
    }
    dir.onLoadStart(3, 7); // still Loading: must not be listed
    std::vector<std::size_t> out;
    dir.residentReplicas(7, &out);
    EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_TRUE(dir.holds(7, 3));
    EXPECT_FALSE(dir.isResident(7, 3));
}

/** Heat order: uses desc, then last-use desc, then id asc. */
TEST(FabricDirectory, HottestIsDeterministic)
{
    fabric::ResidencyDirectory dir;
    for (model::AdapterId id : {1, 2, 3}) {
        dir.onLoadStart(0, id);
        dir.onLoadComplete(0, id);
    }
    dir.onAcquire(0, 2, 10);
    dir.onRelease(0, 2);
    dir.onAcquire(0, 2, 20);
    dir.onRelease(0, 2);
    dir.onAcquire(0, 1, 30);
    dir.onRelease(0, 1);
    dir.onAcquire(0, 3, 30);
    dir.onRelease(0, 3);
    // 2 has two uses; 1 and 3 tie on uses and last-use -> id ascending.
    EXPECT_EQ(dir.hottest(3),
              (std::vector<model::AdapterId>{2, 1, 3}));
    EXPECT_EQ(dir.hottestIdleOn(0, 2),
              (std::vector<model::AdapterId>{2, 1}));
}

/**
 * Random load/complete/evict/acquire/release churn over many adapters
 * and few distinct timestamps, so heat ties on uses and on last-use are
 * common. The top-k queries must equal a full sort of the reference
 * model in heat order, for k = 0, 1, 4 and everything.
 */
TEST(ResidencyDirectory, HottestMatchesFullSortUnderChurn)
{
    constexpr int kReplicas = 3;
    constexpr int kAdapters = 60;
    struct Held
    {
        bool resident = false;
        int refs = 0;
    };
    struct Heat
    {
        std::int64_t uses = 0;
        sim::SimTime lastUse = 0;
    };
    const std::size_t all = std::numeric_limits<std::size_t>::max();

    for (std::uint64_t seed : {11u, 12u, 13u}) {
        fabric::ResidencyDirectory dir;
        std::map<std::pair<int, int>, Held> held; // (replica, adapter)
        std::vector<Heat> heat(kAdapters);
        std::mt19937_64 rng(seed);
        sim::SimTime now = 0;

        // Heat order over the reference model, fully sorted.
        auto expected = [&](auto keep, std::size_t k) {
            std::vector<model::AdapterId> ids;
            for (int a = 0; a < kAdapters; ++a) {
                if (keep(a))
                    ids.push_back(a);
            }
            std::sort(ids.begin(), ids.end(), [&](int a, int b) {
                if (heat[a].uses != heat[b].uses)
                    return heat[a].uses > heat[b].uses;
                if (heat[a].lastUse != heat[b].lastUse)
                    return heat[a].lastUse > heat[b].lastUse;
                return a < b;
            });
            if (ids.size() > k)
                ids.resize(k);
            return ids;
        };

        for (int step = 0; step < 3000; ++step) {
            const int r = static_cast<int>(rng() % kReplicas);
            const int a = static_cast<int>(rng() % kAdapters);
            now += static_cast<sim::SimTime>(rng() % 3); // many equal times
            auto it = held.find({r, a});
            switch (rng() % 5) {
              case 0: // load start, or complete an in-flight load
                if (it == held.end()) {
                    dir.onLoadStart(r, a);
                    held[{r, a}] = Held{};
                } else if (!it->second.resident) {
                    dir.onLoadComplete(r, a);
                    it->second.resident = true;
                }
                break;
              case 1:
                if (it != held.end() && it->second.refs == 0) {
                    dir.onEvict(r, a);
                    held.erase(it);
                }
                break;
              case 2:
              case 3:
                if (it != held.end() && it->second.resident) {
                    dir.onAcquire(r, a, now);
                    ++it->second.refs;
                    ++heat[a].uses;
                    heat[a].lastUse = now;
                }
                break;
              default:
                if (it != held.end() && it->second.refs > 0) {
                    dir.onRelease(r, a);
                    --it->second.refs;
                }
                break;
            }
            if (step % 25 != 0)
                continue;
            for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                        std::size_t{4}, all}) {
                ASSERT_EQ(dir.hottest(k),
                          expected([&](int id) { return heat[id].uses > 0; },
                                   k))
                    << "seed " << seed << " step " << step << " k " << k;
                for (int rep = 0; rep < kReplicas; ++rep) {
                    auto idle = [&](int id) {
                        auto h = held.find({rep, id});
                        return h != held.end() && h->second.resident &&
                               h->second.refs == 0;
                    };
                    ASSERT_EQ(dir.hottestIdleOn(rep, k), expected(idle, k))
                        << "seed " << seed << " step " << step << " k " << k
                        << " replica " << rep;
                }
            }
        }
    }
}

/** Double release is a bookkeeping bug, caught at the directory. */
TEST(FabricDirectoryDeathTest, DoubleReleaseAborts)
{
    fabric::ResidencyDirectory dir;
    dir.onLoadStart(0, 5);
    dir.onLoadComplete(0, 5);
    dir.onAcquire(0, 5, 10);
    dir.onRelease(0, 5);
    EXPECT_DEATH(dir.onRelease(0, 5), "release without acquire");
}

/** Scale-up warming: the new replica pulls the hot set over the peer
 * topology — no host PCIe transfer is started on the destination. */
TEST(CacheFabric, ScaleUpWarmsFromPeersNotHost)
{
    ClusterFixture f(2ll << 30);
    fabric::FabricConfig cfg;
    cfg.migration = fabric::MigrationPolicy::All;
    cfg.topK = 2;
    fabric::CacheFabric fab(f.simulator, f.pool, cfg);
    for (int r = 0; r < ClusterFixture::kReplicas; ++r)
        fab.attachReplica(static_cast<std::size_t>(r), *f.mgrs[r]);

    // Warm replica 0: adapters 4 and 5 become the global hot set.
    for (model::AdapterId id : {4, 5}) {
        for (int uses = 0; uses < 3; ++uses) {
            f.mgrs[0]->acquire(id, f.simulator.now());
            f.simulator.run();
            f.mgrs[0]->release(id);
        }
    }
    const auto hostTransfersBefore = f.links[1]->totalTransfers();
    fab.onScaleUp(1, f.simulator.now());
    f.simulator.run();

    EXPECT_TRUE(f.mgrs[1]->isResident(4));
    EXPECT_TRUE(f.mgrs[1]->isResident(5));
    EXPECT_EQ(static_cast<core::CacheManager &>(*f.mgrs[1]).peerLoads(), 2);
    EXPECT_EQ(f.links[1]->totalTransfers(), hostTransfersBefore);
    EXPECT_EQ(fab.migrations(), 2);
    EXPECT_GT(fab.peerBytes(), 0);
    // attachReplica re-pointed the residency feed at the fabric's own
    // directory; it saw the peer loads land like any other load.
    EXPECT_TRUE(fab.directory().isResident(4, 1));
    EXPECT_TRUE(fab.directory().isResident(5, 1));
}

/** Drain pushes the drained replica's hot idle entries to survivors. */
TEST(CacheFabric, DrainEvacuatesHotIdleEntries)
{
    ClusterFixture f(2ll << 30);
    fabric::FabricConfig cfg;
    cfg.migration = fabric::MigrationPolicy::Drain;
    cfg.topK = 2;
    fabric::CacheFabric fab(f.simulator, f.pool, cfg);
    for (int r = 0; r < ClusterFixture::kReplicas; ++r)
        fab.attachReplica(static_cast<std::size_t>(r), *f.mgrs[r]);

    for (model::AdapterId id : {8, 9}) {
        f.mgrs[2]->acquire(id, f.simulator.now());
        f.simulator.run();
        f.mgrs[2]->release(id);
    }
    fab.onDrain(2, {0, 1}, f.simulator.now());
    f.simulator.run();
    EXPECT_EQ(fab.migrations(), 2);
    for (model::AdapterId id : {8, 9}) {
        EXPECT_TRUE(fab.directory().isResident(id, 0) ||
                    fab.directory().isResident(id, 1))
            << "adapter " << id << " lost on drain";
    }
}

/** NvLink beats PCIe peer links on the same transfer. */
TEST(TransferTopology, PresetBandwidthOrdering)
{
    sim::Simulator simA, simB;
    fabric::TransferTopology pcie(simA, fabric::TopologyKind::PciePeer);
    fabric::TransferTopology nvlink(simB, fabric::TopologyKind::NvLink);
    const std::int64_t bytes = 100ll << 20;
    EXPECT_LT(nvlink.earliestCompletion(0, 1, bytes),
              pcie.earliestCompletion(0, 1, bytes));
    // Reservations serialise FIFO per ordered pair.
    const auto first = pcie.transfer(0, 1, bytes);
    const auto second = pcie.transfer(0, 1, bytes);
    EXPECT_GT(second, first);
    EXPECT_EQ(pcie.peerTransfers(), 2);
    EXPECT_EQ(pcie.peerBytes(), 2 * bytes);
}

// --- rejection paths: every preset name fails with the known list ---

TEST(FabricSpecRejection, UnknownMigrationInSpecJson)
{
    std::string error;
    const auto spec = core::specFromJson(
        R"({"fabric": {"migration": "sideways"}})", &error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("fabric.migration"), std::string::npos) << error;
    EXPECT_NE(error.find("scale-up"), std::string::npos) << error;
    EXPECT_NE(error.find("all"), std::string::npos) << error;
}

TEST(FabricSpecRejection, UnknownTopologyInSpecJson)
{
    std::string error;
    const auto spec = core::specFromJson(
        R"({"fabric": {"topology": "token-ring"}})", &error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("fabric.topology"), std::string::npos) << error;
    EXPECT_NE(error.find("nvlink"), std::string::npos) << error;
}

/** Migration admits weights through peerAdmit, which only the
 * Chameleon cache implements. */
TEST(FabricSpecRejection, FabricNeedsChameleonCache)
{
    std::string error;
    const auto spec = core::specFromJson(
        R"({"adapters": {"policy": "slora"},
            "fabric": {"migration": "all"},
            "cluster": {"replicas": 2}})",
        &error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("fabric.migration"), std::string::npos) << error;
}

/** Every adapter manager feeds the residency directory, so the
 * directory-backed router validates (and builds the fabric) for each
 * adapter policy, `affinity-cache` included. */
TEST(FabricSpecRejection, DirectoryRouterTakesEveryAdapterPolicy)
{
    for (const char *policy : {"slora", "on-demand", "chameleon-cache"}) {
        for (const char *router : {"affinity-dir", "affinity-cache"}) {
            std::string error;
            const auto spec = core::specFromJson(
                std::string(R"({"adapters": {"policy": ")") + policy +
                    R"("}, "cluster": {"replicas": 2, "router": ")" +
                    router + R"("}})",
                &error);
            ASSERT_TRUE(spec.has_value()) << policy << ": " << error;
            EXPECT_EQ(spec->cluster.router,
                      routing::RouterPolicy::AdapterAffinityDirectory);
            EXPECT_TRUE(spec->fabricEnabled()) << policy;
        }
    }
}

TEST(FabricSpecRejection, UnknownMigrationInSweepAxis)
{
    sweep::SweepSpec spec;
    spec.systems = {"chameleon"};
    spec.axes = {sweep::SweepAxis::parse("cluster.replicas", {"2"}),
                 sweep::SweepAxis::parse("fabric.migration", {"sideways"})};
    std::string error;
    EXPECT_FALSE(sweep::expandSweep(spec, &error).has_value());
    EXPECT_NE(error.find("\"fabric.migration\" unknown value \"sideways\""),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("scale-up"), std::string::npos) << error;
}

TEST(FabricSpecRejection, UnknownTopologyInSweepAxis)
{
    sweep::SweepSpec spec;
    spec.systems = {"chameleon"};
    spec.axes = {sweep::SweepAxis::parse("fabric.topology", {"token-ring"})};
    std::string error;
    EXPECT_FALSE(sweep::expandSweep(spec, &error).has_value());
    EXPECT_NE(error.find("\"fabric.topology\" unknown value \"token-ring\""),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("pcie"), std::string::npos) << error;
}

TEST(FabricSpecRejection, NamesRoundTripThroughRegistries)
{
    for (const auto policy :
         {fabric::MigrationPolicy::Off, fabric::MigrationPolicy::ScaleUp,
          fabric::MigrationPolicy::Drain, fabric::MigrationPolicy::Remap,
          fabric::MigrationPolicy::All}) {
        fabric::MigrationPolicy parsed;
        ASSERT_TRUE(fabric::migrationPolicyByName(
            fabric::migrationPolicyName(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    for (const auto kind : {fabric::TopologyKind::PciePeer,
                            fabric::TopologyKind::NvLink}) {
        fabric::TopologyKind parsed;
        ASSERT_TRUE(
            fabric::topologyByName(fabric::topologyName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
}

/**
 * Thread-stress: the same migration-enabled sweep grid at 1, 2, and 8
 * worker threads produces identical per-cell event hashes — migrations
 * order through each cell's own calendar queue, never across threads.
 */
TEST(FabricSweep, MigrationCellsThreadCountInvariant)
{
    auto makeSpec = [](int threads) {
        sweep::SweepSpec spec;
        spec.name = "fabric_stress";
        spec.systems = {"chameleon"};
        spec.axes = {
            sweep::SweepAxis::parse("cluster.replicas", {"2"}),
            sweep::SweepAxis::parse("cluster.router",
                                    {"affinity-dir", "affinity-cache"}),
            sweep::SweepAxis::parse("cluster.autoscale", {"true"}),
            sweep::SweepAxis::parse("cluster.autoscaler.min_replicas", {"1"}),
            sweep::SweepAxis::parse("cluster.autoscaler.max_replicas", {"4"}),
            sweep::SweepAxis::parse("cluster.autoscaler.replica_service_rps",
                                    {"6.0"}),
            sweep::SweepAxis::parse("fabric.migration", {"all"})};
        spec.workload.rps = 10.0;
        spec.workload.durationSeconds = 30.0;
        spec.workload.numAdapters = 24;
        spec.seed = 99;
        spec.threads = threads;
        return spec;
    };
    std::vector<std::uint64_t> reference;
    for (int threads : {1, 2, 8}) {
        sweep::SweepRunner runner(makeSpec(threads));
        const auto results = runner.run();
        ASSERT_EQ(results.size(), 2u);
        std::vector<std::uint64_t> hashes;
        std::int64_t migrations = 0;
        for (const auto &result : results) {
            hashes.push_back(result.report.eventHash);
            migrations += result.report.fabricMigrations;
            EXPECT_TRUE(result.report.fabricEnabled);
        }
        EXPECT_GT(migrations, 0)
            << "stress grid never migrated; the test is vacuous";
        if (reference.empty())
            reference = hashes;
        else
            EXPECT_EQ(hashes, reference)
                << "event hashes changed at " << threads << " threads";
    }
}
