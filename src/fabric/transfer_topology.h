/**
 * @file
 * Inter-replica transfer topology (the fabric's interconnect model).
 *
 * Models the links adapter weights migrate over when they move
 * replica-to-replica instead of host-to-device: one gpu::PeerLink per
 * ordered (src, dst) replica pair, created lazily, all from one preset
 * (bandwidth + per-transfer latency). Two presets cover the fleets the
 * paper's hardware offers:
 *
 *   pcie    P2P over the PCIe switch fabric — ~24 GB/s effective,
 *           ~100 us setup. The default; every multi-GPU host has it.
 *   nvlink  NVLink mesh — ~240 GB/s effective, ~20 us setup.
 *
 * Per-pair FIFO queueing means concurrent migrations into the same
 * booting replica serialise per source but parallelise across sources,
 * which is how real P2P DMA behaves. Counters aggregate across pairs
 * for the `fabric.peer_*` metrics.
 */

#ifndef CHAMELEON_FABRIC_TRANSFER_TOPOLOGY_H
#define CHAMELEON_FABRIC_TRANSFER_TOPOLOGY_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "gpu/peer_link.h"
#include "simkit/name_table.h"
#include "simkit/simulator.h"
#include "simkit/time.h"

namespace chameleon::fabric {

/** Interconnect presets the fabric can migrate over. */
enum class TopologyKind {
    PciePeer, ///< P2P over the PCIe switch (~24 GB/s, ~100 us setup).
    NvLink,   ///< NVLink mesh (~240 GB/s, ~20 us setup).
};

/** The presets' short names, with the parse-only "pcie-peer" alias:
 * the name, the parser and the list for error messages read it. */
const sim::NameTable<TopologyKind> &topologyTable();
inline const char *
topologyName(TopologyKind kind)
{
    return topologyTable().name(kind);
}
inline bool
topologyByName(const std::string &name, TopologyKind *out)
{
    return topologyTable().byName(name, out);
}
inline const char *
topologyNames()
{
    return topologyTable().names();
}

/** Lazily built per-ordered-pair peer links from one preset. */
class TransferTopology
{
  public:
    explicit TransferTopology(sim::Simulator &simulator,
                              TopologyKind kind = TopologyKind::PciePeer);

    TopologyKind kind() const { return kind_; }
    double bytesPerSecond() const { return bytesPerSecond_; }
    sim::SimTime latency() const { return latency_; }

    /** The FIFO link carrying src -> dst transfers (created lazily). */
    gpu::PeerLink &link(std::size_t src, std::size_t dst);

    /** Completion time of a src -> dst transfer submitted now. */
    sim::SimTime earliestCompletion(std::size_t src, std::size_t dst,
                                    std::int64_t bytes);

    /** Reserve the src -> dst link; returns the completion time. */
    sim::SimTime transfer(std::size_t src, std::size_t dst,
                          std::int64_t bytes);

    /** Peer traffic aggregated over every pair. */
    std::int64_t peerBytes() const { return peerBytes_; }
    std::int64_t peerTransfers() const { return peerTransfers_; }

  private:
    sim::Simulator &sim_;
    TopologyKind kind_;
    double bytesPerSecond_;
    sim::SimTime latency_;
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<gpu::PeerLink>>
        links_;
    std::int64_t peerBytes_ = 0;
    std::int64_t peerTransfers_ = 0;
};

} // namespace chameleon::fabric

#endif // CHAMELEON_FABRIC_TRANSFER_TOPOLOGY_H
