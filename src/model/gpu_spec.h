/**
 * @file
 * GPU hardware descriptors (A40 / A100 presets per §5.1/§5.5).
 */

#ifndef CHAMELEON_MODEL_GPU_SPEC_H
#define CHAMELEON_MODEL_GPU_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

namespace chameleon::model {

/** Static description of one GPU. */
struct GpuSpec
{
    std::string name;
    /** Dense fp16 peak throughput, FLOP/s. */
    double fp16Flops = 0.0;
    /** HBM bandwidth, bytes/s. */
    double memBandwidth = 0.0;
    /** Device memory capacity, bytes. */
    std::int64_t memBytes = 0;
    /** Effective host->device PCIe bandwidth, bytes/s. */
    double pcieBandwidth = 0.0;
    /** Fixed per-transfer setup latency, seconds (driver + pinning). */
    double pcieSetupSeconds = 0.0;
};

/** Field-wise equality over its list in chameleon/spec_schema.h. */
bool operator==(const GpuSpec &a, const GpuSpec &b);

/** NVIDIA A40, 48 GB (the paper's primary testbed). */
GpuSpec a40();

/** NVIDIA A100 with a configurable memory capacity in GiB (24/48/80). */
GpuSpec a100(int memGiB = 80);

/**
 * Non-fatal preset lookup for "a40", "a100" (= 80 GiB), or
 * "a100-<24|48|80>"; returns false on unknown names. One source of
 * truth for every GPU-name parser (spec JSON, tools).
 */
bool tryGpuByName(const std::string &name, GpuSpec *out);

/** Comma-separated preset names, for error messages. */
const char *gpuPresetNames();

/**
 * Parse a fleet preset — the GPU mix of a heterogeneous replica set —
 * into one GpuSpec per replica, in order. Grammar:
 *
 *   <gpu>x<count>[+<gpu>x<count>...]
 *
 * where <gpu> is any tryGpuByName preset, so "a40x4" is four A40
 * replicas and "a100x2+a40x2" is two A100-80G replicas followed by two
 * A40s. Returns false on unknown GPU names, malformed terms, or a
 * non-positive count. One source of truth for every fleet parser
 * (spec JSON "cluster.fleet", which a sweep's "cluster.fleet" axis
 * and chameleon_sim --fleet also go through).
 */
bool tryFleetByName(const std::string &name, std::vector<GpuSpec> *out);

/** One-line fleet grammar + known GPUs, for error messages. */
std::string fleetGrammarHelp();

} // namespace chameleon::model

#endif // CHAMELEON_MODEL_GPU_SPEC_H
