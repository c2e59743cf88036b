#include "fabric/transfer_topology.h"

#include "simkit/check.h"

namespace chameleon::fabric {

const sim::NameTable<TopologyKind> &
topologyTable()
{
    static const sim::NameTable<TopologyKind> table(
        {{TopologyKind::PciePeer, "pcie"}, {TopologyKind::NvLink, "nvlink"}},
        {{TopologyKind::PciePeer, "pcie-peer"}});
    return table;
}

namespace {

/** Effective bandwidth of the preset, bytes/second. */
double
presetBandwidth(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::PciePeer: return 24e9;
      case TopologyKind::NvLink: return 240e9;
    }
    CHM_PANIC("unknown topology kind");
}

/** Per-transfer setup latency of the preset. */
sim::SimTime
presetLatency(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::PciePeer: return 100; // 100 us P2P setup
      case TopologyKind::NvLink: return 20;    // 20 us mesh hop
    }
    CHM_PANIC("unknown topology kind");
}

} // namespace

TransferTopology::TransferTopology(sim::Simulator &simulator,
                                   TopologyKind kind)
    : sim_(simulator), kind_(kind), bytesPerSecond_(presetBandwidth(kind)),
      latency_(presetLatency(kind))
{
}

gpu::PeerLink &
TransferTopology::link(std::size_t src, std::size_t dst)
{
    CHM_CHECK(src != dst, "peer link endpoints must differ");
    auto &slot = links_[{src, dst}];
    if (slot == nullptr) {
        slot = std::make_unique<gpu::PeerLink>(sim_, bytesPerSecond_,
                                               latency_);
    }
    return *slot;
}

sim::SimTime
TransferTopology::earliestCompletion(std::size_t src, std::size_t dst,
                                     std::int64_t bytes)
{
    return link(src, dst).earliestCompletion(bytes);
}

sim::SimTime
TransferTopology::transfer(std::size_t src, std::size_t dst,
                           std::int64_t bytes)
{
    const sim::SimTime done = link(src, dst).reserve(bytes);
    peerBytes_ += bytes;
    ++peerTransfers_;
    return done;
}

} // namespace chameleon::fabric
