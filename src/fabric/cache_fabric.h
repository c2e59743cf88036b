/**
 * @file
 * The cache fabric: residency directory + peer-to-peer migration.
 *
 * Ties the cluster's per-replica adapter caches into one fabric. The
 * ResidencyDirectory (kept coherent by adapter-manager callbacks) gives
 * routers true cache-hit routing; the TransferTopology models the
 * peer links hot adapters migrate over when the cluster changes shape:
 *
 *   scale-up  a freshly built replica warms the cluster's top-k hot
 *             adapters from peer caches instead of host PCIe, wired in
 *             parallel with its serving::ColdStartModel boot window;
 *   drain     a drained replica pushes its hottest idle cache entries
 *             to the active replica least likely to hold them, so the
 *             warm state survives the scale-down;
 *   remap     after the routable set changes (ring remap), the top-k
 *             hot adapters each get at least one active holder.
 *
 * A migration is: pick a Resident source holder, reserve the (src,
 * dst) peer link, and peerAdmit the weights at the destination cache
 * manager — which flips them Resident at the transfer's completion
 * through the calendar queue, so every migration orders by (time,
 * seq) like any other event. Destinations decline under memory
 * pressure (watermark-respecting), in which case nothing is reserved.
 *
 * With MigrationPolicy::Off and no directory-backed router the Runner
 * never constructs a fabric, so non-migrating runs execute the
 * pre-fabric event streams byte-for-byte (the golden pins hold).
 */

#ifndef CHAMELEON_FABRIC_CACHE_FABRIC_H
#define CHAMELEON_FABRIC_CACHE_FABRIC_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fabric/residency_directory.h"
#include "fabric/transfer_topology.h"
#include "model/adapter.h"
#include "serving/adapter_manager.h"
#include "simkit/simulator.h"

namespace chameleon::obs {
class TraceRecorder;
}

namespace chameleon::fabric {

/** Which cluster reshapes trigger peer migration. */
enum class MigrationPolicy {
    Off,     ///< No migration (and no fabric unless a router needs it).
    ScaleUp, ///< Peer-warm freshly built replicas only.
    Drain,   ///< Push a drained replica's hot cache to survivors only.
    Remap,   ///< Re-home hot adapters after routable-set changes only.
    All,     ///< Every trigger.
};

/** The policies' short names: the name, the parser (false on an
 * unknown name) and the list for error messages read it. */
const sim::NameTable<MigrationPolicy> &migrationPolicyTable();
inline const char *
migrationPolicyName(MigrationPolicy policy)
{
    return migrationPolicyTable().name(policy);
}
inline bool
migrationPolicyByName(const std::string &name, MigrationPolicy *out)
{
    return migrationPolicyTable().byName(name, out);
}
inline const char *
migrationPolicyNames()
{
    return migrationPolicyTable().names();
}

/**
 * Fabric knobs: the spec's `fabric` axis (core::SystemSpec::fabric).
 * Off by default: with migration off and no directory-backed router
 * the Runner never constructs a fabric, so pre-fabric event streams
 * are preserved byte-for-byte.
 */
struct FabricConfig
{
    /** Which cluster reshapes trigger peer migration. */
    MigrationPolicy migration = MigrationPolicy::Off;
    /** Peer-link preset migrations travel over. */
    TopologyKind topology = TopologyKind::PciePeer;
    /** Hot adapters considered per migration trigger. */
    std::size_t topK = 4;

    /** Does migration alone require a fabric? */
    bool enabled() const { return migration != MigrationPolicy::Off; }
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const FabricConfig &a, const FabricConfig &b);

/** Cluster-wide residency directory + migration planner. */
class CacheFabric
{
  public:
    CacheFabric(sim::Simulator &simulator, const model::AdapterPool &pool,
                FabricConfig config);

    const FabricConfig &config() const { return config_; }
    ResidencyDirectory &directory() { return directory_; }
    const ResidencyDirectory &directory() const { return directory_; }
    TransferTopology &topology() { return topology_; }

    /**
     * Wire replica `index`'s adapter manager into the directory and
     * register it as a migration endpoint. The cluster calls this for
     * every engine it builds, before the engine serves anything.
     */
    void attachReplica(std::size_t index,
                       serving::AdapterManager &manager);

    // --- cluster lifecycle hooks (DataParallelCluster calls these) ---
    /** A scale-up built replica `index`: peer-warm the global top-k. */
    void onScaleUp(std::size_t index, sim::SimTime now);
    /** Replica `index` drained; `active` are the routable engine
     * indices after the drain. Pushes its hot idle cache out. */
    void onDrain(std::size_t index,
                 const std::vector<std::size_t> &active, sim::SimTime now);
    /** The routable set changed (ring remap): ensure each globally hot
     * adapter has at least one active holder. */
    void onRemap(const std::vector<std::size_t> &active, sim::SimTime now);

    /** Migrations actually started (declined admits excluded). */
    std::int64_t migrations() const { return migrations_; }
    /** Peer traffic the migrations moved. */
    std::int64_t peerBytes() const { return topology_.peerBytes(); }
    std::int64_t peerTransfers() const
    {
        return topology_.peerTransfers();
    }

    /** Record migration spans on the cluster Control lane. */
    void setTraceRecorder(obs::TraceRecorder *recorder)
    {
        trace_ = recorder;
    }

  private:
    bool triggers(MigrationPolicy trigger) const;
    /** Move `id` from `src` to `dst` if dst lacks it and admits it. */
    bool migrate(model::AdapterId id, std::size_t src, std::size_t dst,
                 sim::SimTime now);
    /** Lowest-index Resident holder of `id`, excluding `dst`. */
    bool pickSource(model::AdapterId id, std::size_t dst,
                    std::size_t *src) const;
    /** Active replica with the fewest directory entries not holding
     * `id` (ties to the lowest engine index). */
    bool pickDestination(model::AdapterId id,
                         const std::vector<std::size_t> &active,
                         std::size_t exclude, std::size_t *dst) const;

    sim::Simulator &sim_;
    const model::AdapterPool &pool_;
    FabricConfig config_;
    ResidencyDirectory directory_;
    TransferTopology topology_;
    /** engine index -> manager (migration endpoints). */
    std::map<std::size_t, serving::AdapterManager *> managers_;
    std::int64_t migrations_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
};

} // namespace chameleon::fabric

#endif // CHAMELEON_FABRIC_CACHE_FABRIC_H
